// Clock plane: skew, jumps, and monotonicity violations on the device RTC.
//
// Smart-phone RTCs drift (crystal tolerance is tens of ppm), get stepped
// by network time or the user, and occasionally step *backwards* — and
// every timestamp the logger writes inherits the error.  The plane
// implements phone::DeviceClock: the simulation always runs on true time,
// only what the logger *reports* drifts.  That makes clock faults a pure
// measurement distortion, which is exactly what the validity analysis
// needs to isolate: how much timestamp error the timestamp-matching
// evaluation tolerates before recovered failure tables degrade.
//
// A jump syncs the phone's logger first, so every tick due before it is
// stamped, and read, with the offset it had at its time.
#pragma once

#include <cstdint>

#include "osfault/plane.hpp"
#include "phone/device.hpp"

namespace symfail::osfault {

struct ClockPlaneConfig {
    /// Constant frequency error in parts per million; positive runs fast.
    double skewPpm{0.0};
    /// Step events (NITZ updates, user corrections) per 1000 device-hours.
    double jumpsPerKHour{0.0};

    [[nodiscard]] bool enabled() const {
        return skewPpm != 0.0 || jumpsPerKHour > 0.0;
    }
};

struct ClockPlaneStats {
    std::uint64_t jumps{0};
    std::uint64_t backwardJumps{0};
    /// Reads that returned a time earlier than a previous read.
    std::uint64_t monotonicityViolations{0};
};

class ClockPlane final : public FaultPlane, public phone::DeviceClock {
public:
    ClockPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
               ClockPlaneConfig config, std::uint64_t seed);

    /// Syncs the phone's logger first: the ticks due by now read the
    /// clock, as their AOs would have.
    [[nodiscard]] ClockPlaneStats stats() const {
        device_->syncLogger();
        return {activations(), backwardJumps_, monotonicityViolations_};
    }

    // phone::DeviceClock
    sim::TimePoint read(sim::TimePoint trueNow) override;

protected:
    void activate(sim::Rng& rng) override;

private:
    phone::PhoneDevice* device_;
    double skewPpm_;
    sim::TimePoint epoch_{};
    sim::Duration offset_{};
    sim::TimePoint lastReported_{};
    bool anyReported_{false};
    std::uint64_t backwardJumps_{0};
    std::uint64_t monotonicityViolations_{0};
};

}  // namespace symfail::osfault
