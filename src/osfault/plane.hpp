// OS-interface fault planes — base machinery.
//
// The paper's logger assumes the OS beneath it is well-behaved: flash
// writes complete, the daemon's heap never runs dry, the RTC is monotonic,
// and the radio link is someone else's problem.  Following the
// fault-injection methodology of Cotroneo et al. ("Dependability Assessment
// of the Android OS through Fault Injection"), each *plane* injects faults
// at one simulated OS interface and the measurement-validity analysis
// (validity.hpp) checks whether the pipeline still recovers ground truth.
//
// A FaultPlane is a Poisson activation process on the simulation clock:
// arrivals are drawn from the plane's own seed-substreamed Rng, so enabling
// one plane never perturbs another plane's stream (or the campaign's when
// all planes idle at rate zero).  What an activation *does* is the derived
// plane's business.
#pragma once

#include <cstdint>

#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"
#include "simkernel/time.hpp"

namespace symfail::osfault {

/// Declarative activation schedule: a rate (per 1000 device-hours — the
/// paper's failure-rate unit), an optional burst factor, and an optional
/// active window.  A zero rate disables the plane's arrival process
/// entirely (no Rng draws, no simulator events).
struct FaultSchedule {
    /// Mean activations per 1000 hours of simulated time.
    double eventsPerKHour{0.0};
    /// Activations fired per arrival (>= 1); models correlated faults
    /// (a failing flash block rots several bits at once).
    int burst{1};
    /// Active window; end <= start means the whole campaign.
    sim::TimePoint windowStart{};
    sim::TimePoint windowEnd{};

    [[nodiscard]] bool enabled() const { return eventsPerKHour > 0.0; }
    [[nodiscard]] bool windowed() const { return windowEnd > windowStart; }
    [[nodiscard]] bool inWindow(sim::TimePoint t) const {
        return !windowed() || (t >= windowStart && t < windowEnd);
    }
};

/// Base class: owns the plane's Rng substream and drives the arrival
/// process.  Derived planes implement `activate`.
class FaultPlane {
public:
    /// `category` must be a static string ("osfault.flash"): it labels
    /// simulator events and the queue keeps only the pointer.
    FaultPlane(sim::Simulator& simulator, const char* category,
               FaultSchedule schedule, std::uint64_t seed);
    virtual ~FaultPlane();
    FaultPlane(const FaultPlane&) = delete;
    FaultPlane& operator=(const FaultPlane&) = delete;

    /// Schedules the first arrival (no-op when the schedule is disabled).
    void start();

    [[nodiscard]] std::uint64_t activations() const { return activations_; }

protected:
    virtual void activate(sim::Rng& rng) = 0;

    [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
    [[nodiscard]] sim::Rng& rng() { return rng_; }

private:
    void scheduleNext();
    void onArrival();

    sim::Simulator* simulator_;
    const char* category_;
    FaultSchedule schedule_;
    sim::Rng rng_;
    sim::EventId pending_{};
    std::uint64_t activations_{0};
};

}  // namespace symfail::osfault
