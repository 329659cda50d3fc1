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

/// Base class: owns the plane's Rng substream and drives the arrival
/// process.  Derived planes implement `activate`.
class FaultPlane {
public:
    /// `category` must be a static string ("osfault.flash"): it labels
    /// simulator events and the queue keeps only the pointer.
    /// `eventsPerKHour` is the mean activation rate per 1000 hours of
    /// simulated time (the paper's failure-rate unit); zero disables the
    /// arrival process entirely (no Rng draws, no simulator events).
    FaultPlane(sim::Simulator& simulator, const char* category,
               double eventsPerKHour, std::uint64_t seed);
    virtual ~FaultPlane();
    FaultPlane(const FaultPlane&) = delete;
    FaultPlane& operator=(const FaultPlane&) = delete;

    /// Schedules the first arrival (no-op at a zero rate).
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
    double eventsPerKHour_;
    sim::Rng rng_;
    sim::EventId pending_{};
    std::uint64_t activations_{0};
};

}  // namespace symfail::osfault
