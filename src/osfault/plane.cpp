#include "osfault/plane.hpp"

namespace symfail::osfault {
namespace {

constexpr double kSecondsPerKHour = 1000.0 * 3600.0;

}  // namespace

FaultPlane::FaultPlane(sim::Simulator& simulator, const char* category,
                       double eventsPerKHour, std::uint64_t seed)
    : simulator_{&simulator},
      category_{category},
      eventsPerKHour_{eventsPerKHour},
      rng_{seed} {}

FaultPlane::~FaultPlane() {
    if (pending_.valid()) simulator_->cancel(pending_);
}

void FaultPlane::start() {
    if (eventsPerKHour_ <= 0.0) return;
    scheduleNext();
}

void FaultPlane::scheduleNext() {
    const double eventsPerSecond = eventsPerKHour_ / kSecondsPerKHour;
    const sim::Duration gap = rng_.expGap(eventsPerSecond);
    pending_ = simulator_->scheduleAfter(gap, category_,
                                         [this]() { onArrival(); });
}

void FaultPlane::onArrival() {
    pending_ = {};
    ++activations_;
    activate(rng_);
    scheduleNext();
}

}  // namespace symfail::osfault
