#include "osfault/plane.hpp"

namespace symfail::osfault {
namespace {

constexpr double kSecondsPerKHour = 1000.0 * 3600.0;

}  // namespace

FaultPlane::FaultPlane(sim::Simulator& simulator, const char* category,
                       FaultSchedule schedule, std::uint64_t seed)
    : simulator_{&simulator},
      category_{category},
      schedule_{schedule},
      rng_{seed} {
    if (schedule_.burst < 1) schedule_.burst = 1;
}

FaultPlane::~FaultPlane() {
    if (pending_.valid()) simulator_->cancel(pending_);
}

void FaultPlane::start() {
    if (!schedule_.enabled()) return;
    scheduleNext();
}

void FaultPlane::scheduleNext() {
    const double eventsPerSecond = schedule_.eventsPerKHour / kSecondsPerKHour;
    const sim::Duration gap = rng_.expGap(eventsPerSecond);
    pending_ = simulator_->scheduleAfter(gap, category_,
                                         [this]() { onArrival(); });
}

void FaultPlane::onArrival() {
    pending_ = {};
    const sim::TimePoint now = simulator_->now();
    if (schedule_.inWindow(now)) {
        for (int i = 0; i < schedule_.burst; ++i) {
            ++activations_;
            activate(rng_);
        }
    }
    // Arrivals past a bounded window are pointless; stop the process.
    if (schedule_.windowed() && now >= schedule_.windowEnd) return;
    scheduleNext();
}

}  // namespace symfail::osfault
