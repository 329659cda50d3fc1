#include "osfault/clock_plane.hpp"

namespace symfail::osfault {

/// Jump magnitude (lognormal median, sigma); direction is a fair coin, so
/// roughly half the jumps step the clock backwards.
constexpr sim::Duration kJumpMagnitudeMedian = sim::Duration::minutes(3);
constexpr double kJumpMagnitudeSigma = 0.8;

ClockPlane::ClockPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                       ClockPlaneConfig config, std::uint64_t seed)
    : FaultPlane{simulator, "osfault.clock", config.jumpsPerKHour, seed},
      device_{&device},
      skewPpm_{config.skewPpm},
      epoch_{simulator.now()} {
    // Without skew or jumps every reading is the true time and none goes
    // back, so an idle plane installs no clock: the logger then skips the
    // reads and the time-ordered catch-up a device clock needs.
    if (config.enabled()) device.setClock(this);
}

sim::TimePoint ClockPlane::read(sim::TimePoint trueNow) {
    const sim::Duration elapsed = trueNow - epoch_;
    const sim::Duration skew =
        sim::Duration::fromSecondsF(elapsed.asSecondsF() * skewPpm_ / 1e6);
    sim::TimePoint reported = trueNow + skew + offset_;
    // The RTC cannot report a time before the campaign epoch.
    if (reported < epoch_) reported = epoch_;
    if (anyReported_ && reported < lastReported_) ++monotonicityViolations_;
    lastReported_ = reported;
    anyReported_ = true;
    return reported;
}

void ClockPlane::activate(sim::Rng& rng) {
    device_->syncLogger();
    const sim::Duration magnitude =
        rng.lognormalDuration(kJumpMagnitudeMedian, kJumpMagnitudeSigma);
    if (rng.bernoulli(0.5)) {
        offset_ = offset_ + magnitude;
    } else {
        offset_ = offset_ - magnitude;
        ++backwardJumps_;
    }
}

}  // namespace symfail::osfault
