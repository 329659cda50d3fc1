// The fault injector.
//
// Subscribes to a phone's activity stream and power state, and activates
// faults from the calibrated catalog:
//   * per-call and per-message triggers fire during the corresponding
//     activity (this is what produces the paper's Table 3 correlation
//     between panics and real-time tasks);
//   * background triggers follow a Poisson process over powered-on time;
//   * each activation may open a cascade (Figure 3's panic bursts),
//     modelling error propagation between applications;
//   * no-panic hangs and spontaneous reboots supply the freezes and
//     self-shutdowns the paper observed without any recorded panic.
//
// Every activation is recorded in the device's ground truth, so the
// analysis pipeline's detections can be scored against what actually
// happened.
#pragma once

#include <cstdint>
#include <string>

#include "faults/drivers.hpp"
#include "faults/rates.hpp"
#include "phone/device.hpp"
#include "simkernel/rng.hpp"

namespace symfail::faults {

/// Per-device fault injector.
class FaultInjector {
public:
    struct Stats {
        std::uint64_t primaryPanics{0};
        std::uint64_t secondaryPanics{0};
        std::uint64_t hangs{0};
        std::uint64_t spontaneousReboots{0};
        std::uint64_t outputFailures{0};
    };

    /// Attaches to `device`; hooks stay registered for the device's life.
    FaultInjector(phone::PhoneDevice& device, FaultRates rates, std::uint64_t seed);
    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    [[nodiscard]] const Stats& stats() const { return stats_; }

private:
    enum class OutcomeKind : std::uint8_t { None, Freeze, Shutdown };

    void onBoot();
    void onActivity(symbos::ActivityKind kind, bool started);
    void scheduleBackgroundChain();
    /// Runs the burst for a triggered class: optional harmless secondaries,
    /// then the primary panic with its outcome.
    void activate(std::size_t classIdx);
    void executePrimary(std::size_t classIdx);
    void executeSecondary();
    void executeHang();
    void executeSpontaneousReboot();
    void executeOutputFailure();

    [[nodiscard]] OutcomeKind drawOutcome(const FaultClassSpec& spec);
    /// Victim process for the outcome; may open an app session to create
    /// realistic running-application context.  Returns 0 when no victim
    /// can be produced (device not on).
    [[nodiscard]] symbos::ProcessId victimFor(const FaultClassSpec& spec,
                                              OutcomeKind outcome);
    [[nodiscard]] symbos::ProcessId harmlessVictim();
    /// Ensures some user application is running (Table 4 context) and
    /// returns a panicable user-app pid, or 0.
    [[nodiscard]] symbos::ProcessId runningUserAppVictim();

    /// Epoch-guarded deferred execution helper.
    void deferred(sim::Duration delay, const std::function<void()>& body);

    phone::PhoneDevice* device_;
    FaultRates rates_;
    sim::Rng rng_;
    AsyncBag bag_;
    Stats stats_;
    double backgroundTotalPerHour_{0.0};
};

}  // namespace symfail::faults
