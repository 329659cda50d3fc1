// Online fleet-health analytics.
//
// The batch pipeline (src/analysis) answers the paper's questions after
// the campaign: burst structure (Figure 3), self-shutdown discrimination
// (Figure 2), panic/HL-event coalescence (Figures 4-5), MTBF.  The
// HealthEngine answers the same questions *while records stream in*,
// advancing only on simulated event time.
//
// Exactness contract: fed one phone's records in log order and then
// finalized, the engine's burst-length counter and coalescence counts
// equal the batch results on the same data, bit for bit.  The key
// obstacle is that high-level (HL) events are revealed retroactively — a
// freeze only becomes visible in the *next* boot record, timestamped at
// the last ALIVE heartbeat before it.  The engine therefore holds each
// panic pending until no future record can change its relation: an
// unrevealed HL event of a phone is always later than that phone's record
// watermark minus one heartbeat period (nothing is logged between the
// last beat and the shutdown except, for freezes, records within the beat
// period), so a panic at t is safe to resolve once the watermark passes
// t + window + heartbeatPeriod.  finalize() resolves everything left.
//
// Sliding-window rates (not part of the batch pipeline) count revealed
// events in (now - kRateWindow, now] against the observed phone-time
// overlapping the window.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "analysis/coalescence.hpp"
#include "analysis/discriminator.hpp"
#include "analysis/panic_stats.hpp"
#include "crash/signature.hpp"
#include "logger/records.hpp"
#include "simkernel/histogram.hpp"
#include "simkernel/time.hpp"

namespace symfail::monitor {

/// Sliding window for rates and windowed MTBF.
inline constexpr sim::Duration kRateWindow = sim::Duration::days(7);

/// Fleet-wide windowed counts at one instant.
struct WindowStats {
    std::uint64_t freezes{0};
    std::uint64_t selfShutdowns{0};
    std::uint64_t reboots{0};  ///< All boot records in the window.
    std::uint64_t panics{0};
    std::uint64_t multiBursts{0};  ///< Bursts of length >= 2 closed in the window.
    std::uint64_t dumps{0};        ///< Crash dumps in the window.
    std::uint64_t crashFamilies{0};  ///< Families with >= 1 windowed dump.
    std::uint64_t topFamilyDumps{0};  ///< Largest per-family windowed count.
    std::string topFamilyId;          ///< "" when the window holds no dump.
    double observedHours{0.0};     ///< Phone-time overlapping the window.
    /// Observed hours per failure; 0 when the window holds no failure.
    double mtbfAnyHours{0.0};
    /// (freezes + self-shutdowns) per 1000 observed hours.
    double failureRatePerKiloHour{0.0};
    /// Windowed Laplace trend factor over freezes + self-shutdowns:
    /// standardized mean event position inside each phone's observed
    /// slice of the window.  ~N(0,1) under a constant rate; positive
    /// means failures cluster late (reliability regressing), negative
    /// means early (growth).  0 when the window holds no failure.
    double laplaceTrend{0.0};
    /// Expected failures over the next window-length horizon, from a
    /// moment-matched linear intensity fitted to the windowed events.
    double forecastNextWindowFailures{0.0};
};

/// Lifetime tallies across the fed stream.
struct HealthTotals {
    std::uint64_t boots{0};
    std::uint64_t panics{0};
    std::uint64_t freezes{0};
    std::uint64_t selfShutdowns{0};
    std::uint64_t userShutdowns{0};
    std::uint64_t lowBatteryShutdowns{0};
    std::uint64_t manualOffBoots{0};
    std::uint64_t userReports{0};
    std::uint64_t dumps{0};
};

/// Online coalescence summary; field names follow analysis::CoalescenceResult.
struct CoalescenceCounts {
    std::size_t panicsResolved{0};
    std::size_t relatedCount{0};
    std::size_t pendingPanics{0};
    std::size_t hlWithPanic{0};
    std::size_t hlTotal{0};
    [[nodiscard]] double relatedFraction() const {
        return panicsResolved == 0 ? 0.0
                                   : static_cast<double>(relatedCount) /
                                         static_cast<double>(panicsResolved);
    }
};

/// Streaming analytics over per-phone record streams.  The coalescence
/// window and burst gap are the batch analysis's constants; the
/// self-shutdown threshold is the study's.
class HealthEngine {
public:
    /// `heartbeatPeriod` is the campaign's: the lateness bound for live
    /// panic finalization (see file comment).
    explicit HealthEngine(
        double selfShutdownThresholdSeconds = analysis::kSelfShutdownThresholdSeconds,
        sim::Duration heartbeatPeriod = sim::Duration::seconds(60));

    /// Feeds one parsed record.  Records of one phone must arrive in log
    /// order (nondecreasing time) — exactly what the ingest tap produces.
    void onRecord(const std::string& phone, const logger::LogFileEntry& entry);
    void addMalformed(std::uint64_t lines) { malformedLines_ += lines; }

    /// Advances the window clock: events at or before `now - kRateWindow`
    /// leave the windowed counts.
    void trimTo(sim::TimePoint now);

    /// End of stream: resolves every pending panic and closes open bursts,
    /// making the online counts equal to the batch pipeline's.
    void finalize();

    [[nodiscard]] WindowStats windowStats(sim::TimePoint now) const;
    /// Finalized burst lengths (open bursts join at finalize()).
    [[nodiscard]] const sim::FreqCounter& burstLengths() const { return bursts_; }
    [[nodiscard]] std::uint64_t multiBursts() const { return multiBursts_; }
    [[nodiscard]] CoalescenceCounts coalescence() const;
    [[nodiscard]] const HealthTotals& totals() const { return totals_; }
    [[nodiscard]] std::uint64_t malformedLines() const { return malformedLines_; }

    /// Approximate heap footprint of the per-phone streaming state and
    /// fleet-wide windows; deterministic for identical record streams.
    [[nodiscard]] std::size_t approxMemoryBytes() const;

private:
    /// A revealed freeze or self-shutdown.
    struct HlEvent {
        sim::TimePoint time;
        bool matched{false};
    };
    struct PhoneState {
        // Stream position.
        sim::TimePoint watermark;
        sim::TimePoint firstRecordAt;
        bool heard{false};
        // Coalescence.
        std::vector<HlEvent> hls;
        std::deque<sim::TimePoint> pendingPanics;  ///< Unresolved panic times.
        // Bursts.
        std::size_t burstLen{0};
        sim::TimePoint prevPanicAt;
        // Windowed events (revealed-event times, time-sorted).
        std::deque<sim::TimePoint> windowFreezes;
        std::deque<sim::TimePoint> windowSelf;
        std::deque<sim::TimePoint> windowBoots;
        std::deque<sim::TimePoint> windowPanics;
    };

    void addHl(PhoneState& state, sim::TimePoint time);
    void feedPanic(PhoneState& state, sim::TimePoint time);
    /// Resolves pending panics whose relation can no longer change.
    void resolveReady(PhoneState& state);
    void resolvePanic(PhoneState& state, sim::TimePoint panicAt);
    void closeBurst(PhoneState& state);
    [[nodiscard]] sim::TimePoint windowCutoff(sim::TimePoint now) const;

    double selfShutdownThresholdSeconds_;
    sim::Duration heartbeatPeriod_;
    std::map<std::string, PhoneState> phones_;
    sim::FreqCounter bursts_;
    std::uint64_t multiBursts_{0};
    /// Close times of multi-panic bursts, for the windowed count.
    std::deque<sim::TimePoint> windowMultiBursts_;
    /// Fleet-wide windowed dump times per crash family (family-scoped
    /// burst detection); keyed by the stable family id.
    std::map<std::string, std::deque<sim::TimePoint>> windowFamilies_;
    std::size_t relatedCount_{0};
    std::size_t panicsResolved_{0};
    std::size_t hlMatched_{0};
    HealthTotals totals_;
    std::uint64_t malformedLines_{0};
    bool finalized_{false};
};

}  // namespace symfail::monitor
