// Campaign profiler: where does the *host* CPU go when a campaign runs?
//
// The simulator, when a profiler is attached, wraps event dispatches in
// a steady_clock bracket and reports the event's category (a static
// string supplied at scheduling time), its host-time cost and the queue
// depth after the pop.  The profiler aggregates per category, so a perf
// PR can say "transport wire events are 40% of host time" with numbers
// instead of vibes — and records queue-depth watermarks, the first thing
// to look at when a campaign's memory grows.
//
// Sampling: timing every dispatch costs two steady_clock reads per
// event, which itself distorts large campaigns.  setSamplingStride(k)
// times only every k-th dispatch and scales the timed cost by k; event
// *counts* stay exact either way.  The estimator's bias bound is
// documented in METHODOLOGY §15 — with hundreds of samples per category
// the share estimates converge to the always-on profile.
//
// Coarser than categories, the profiler also keeps named *phase* timers
// ("simulate", "harvest", "analysis") fed by ScopedPhase brackets around
// pipeline stages; phases are timed exactly, never sampled.
//
// Host time is measurement, not simulation: attaching a profiler never
// changes simulated behaviour, and profiler output is the one obs artifact
// that is *not* deterministic across runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace symfail::obs {

class MetricsRegistry;

/// Aggregated host-time profile of one campaign run.
class CampaignProfiler {
public:
    /// Times only every `stride`-th dispatch (clamped to >= 1; 1 = time
    /// everything, the default).  Set before the run starts.
    void setSamplingStride(std::uint64_t stride);

    /// Called by the simulator before dispatching an event: true when this
    /// dispatch should be bracketed with a host-clock measurement.
    [[nodiscard]] bool sampleThisEvent();

    /// Called by the simulator after a *timed* dispatch.  `category` is
    /// a static string ("" maps to "uncategorized").
    void noteEvent(const char* category, double hostSeconds, std::size_t queueDepth);

    /// Called by the simulator after an *untimed* dispatch (sampling
    /// skipped it): keeps event counts exact without clock reads.
    void noteEventUnsampled(const char* category, std::size_t queueDepth);

    /// Adds exact host seconds to a named pipeline phase.
    void notePhase(const char* phase, double hostSeconds);

    struct CategoryProfile {
        std::string category;
        std::uint64_t events{0};  ///< Exact dispatch count.
        double hostSeconds{0.0};  ///< Estimated: timed seconds x stride.
    };

    struct PhaseProfile {
        std::string phase;
        double hostSeconds{0.0};  ///< Exact (phases are never sampled).
    };

    [[nodiscard]] std::uint64_t eventsDispatched() const { return events_; }
    [[nodiscard]] std::uint64_t eventsSampled() const { return sampledEvents_; }
    /// Estimated host seconds in dispatch: timed seconds scaled by the
    /// sampling stride (equals the exact sum at stride 1).
    [[nodiscard]] double hostSecondsTotal() const {
        return hostSeconds_ * static_cast<double>(stride_);
    }
    /// Raw timed seconds, unscaled.
    [[nodiscard]] double hostSecondsSampled() const { return hostSeconds_; }
    [[nodiscard]] std::size_t queueDepthWatermark() const { return queueWatermark_; }
    /// Per-category profile, most expensive first.
    [[nodiscard]] std::vector<CategoryProfile> byCategory() const;
    /// Per-phase exact timers, most expensive first.
    [[nodiscard]] std::vector<PhaseProfile> byPhase() const;

    /// Human-readable report (events, host time per category and phase,
    /// events/sec, queue watermark, sampling coverage).
    [[nodiscard]] std::string renderReport() const;

    /// Publishes the profile under the "profiler" namespace.
    void publish(MetricsRegistry& registry) const;

private:
    struct Bucket {
        std::uint64_t events{0};
        double hostSeconds{0.0};  ///< Raw timed seconds (unscaled).
    };
    std::map<std::string, Bucket, std::less<>> categories_;
    std::map<std::string, double, std::less<>> phases_;
    std::uint64_t events_{0};
    std::uint64_t sampledEvents_{0};
    double hostSeconds_{0.0};
    std::size_t queueWatermark_{0};
    std::uint64_t stride_{1};
    std::uint64_t strideCursor_{0};
};

/// RAII phase bracket: times its scope on the steady clock and adds the
/// cost to `profiler` (when non-null) under `phase`.
class ScopedPhase {
public:
    ScopedPhase(CampaignProfiler* profiler, const char* phase);
    ~ScopedPhase();
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
    CampaignProfiler* profiler_;
    const char* phase_;
    double startSeconds_;
};

}  // namespace symfail::obs
