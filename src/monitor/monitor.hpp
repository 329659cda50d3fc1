// The online fleet-health monitor.
//
// FleetMonitor is a fleet::CampaignObserver: attached to a campaign via
// FleetConfig::obs.monitor it taps the collection server's ingest stream,
// turns frames into records (monitor/stream), feeds the streaming
// analytics (monitor/health), tracks per-phone liveness from upload
// silence — distinguishing "the transport is in an outage window" from
// "the device went dark" via the outage probe — and evaluates declarative
// alert rules (monitor/alerts) on a periodic tick of the *simulated*
// clock.  Every tick appends a snapshot; the run ends with a JSONL
// snapshot stream, an alert log, a metrics publication and an ASCII
// dashboard.
//
// Determinism: the monitor draws no randomness and reads only simulated
// time, so its entire output is a pure function of the campaign seed —
// byte-identical at any --jobs count.  Non-perturbation: it never mutates
// campaign state, so collected logs and analysis tables are bit-identical
// with the monitor on or off.
//
// Replay mode (`replay`) feeds an already-collected dataset through the
// same engine with virtual ticks, then finalizes; after that the online
// burst and coalescence counts equal the batch src/analysis results on
// the same data exactly (see HealthEngine's contract).  In live mode the
// counts are best-effort until finalization: a permanently lost segment
// holds back records behind it that the batch reconstruction would
// recover via its gap-splice.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "fleet/fleet.hpp"
#include "fleet/observer.hpp"
#include "monitor/alerts.hpp"
#include "monitor/health.hpp"
#include "monitor/stream.hpp"
#include "obs/metrics.hpp"
#include "simkernel/simulator.hpp"

namespace symfail::monitor {

/// Monitor configuration.
struct MonitorConfig {
    /// Snapshot / alert-evaluation cadence on the simulated clock.
    sim::Duration tick = sim::Duration::hours(6);
    /// Upload silence beyond this flags a phone (suspect or outage).
    /// Phones upload only when the log grows (a boot or a panic), so a
    /// healthy quiet phone can be silent for a day or two; three days is
    /// past the bulk of benign gaps at the paper's failure rates.
    double silenceHours = 72.0;
    /// The study's self-shutdown threshold: the exactness contract needs
    /// the batch classification's value.
    double selfShutdownThresholdSeconds = analysis::kSelfShutdownThresholdSeconds;
};

/// The built-in rule set: fleet failure-rate spike, windowed-MTBF floor,
/// per-phone upload silence (suspect/outage), reliability trend, panic-burst
/// activity and crash-family burst.
[[nodiscard]] std::vector<AlertRule> defaultRules(const MonitorConfig& config);

/// Per-phone liveness as classified at the last tick.
enum class Liveness : std::uint8_t { NotEnrolled, Healthy, SilentOutage, SilentSuspect };
[[nodiscard]] std::string_view toString(Liveness liveness);

/// One periodic snapshot of the monitor's state.
struct Snapshot {
    sim::TimePoint at;
    std::uint64_t records{0};
    std::uint64_t frames{0};
    std::uint64_t malformed{0};
    std::size_t phonesRegistered{0};
    std::size_t phonesHeard{0};
    std::size_t silentSuspect{0};
    std::size_t silentOutage{0};
    WindowStats window;
    HealthTotals totals;
    std::size_t resolvedPanics{0};
    std::size_t relatedPanics{0};
    std::size_t pendingPanics{0};
    std::uint64_t multiBursts{0};
    std::uint64_t alertsFired{0};    ///< Cumulative.
    std::uint64_t alertsCleared{0};  ///< Cumulative.
    std::size_t alertsActive{0};
    std::vector<std::string> silentPhones;  ///< Sorted; suspect and outage.
    std::vector<std::string> activeAlerts;  ///< Sorted "rule" / "rule/phone".
};

/// The monitor.  One instance observes one campaign (or one replay).
class FleetMonitor final : public fleet::CampaignObserver {
public:
    explicit FleetMonitor(MonitorConfig config = {});

    // -- fleet::CampaignObserver --------------------------------------------
    void onCampaignBegin(sim::Simulator& simulator,
                         const fleet::FleetConfig& config) override;
    void onPhoneEnrolled(const std::string& phoneName, sim::TimePoint enrollAt,
                         fleet::OutageProbe outageProbe) override;
    void onCampaignEnd(sim::TimePoint at) override;
    void onFrameAccepted(const transport::IngestResult& frame) override;
    void onProvenanceAttached(obs::ProvenanceTracker* tracker) override;
    /// Approximate monitor-held bytes (stream buffers, presence table,
    /// health windows, snapshot history) for the resource accountant.
    [[nodiscard]] std::uint64_t approxMemoryBytes() const override;

    /// Replay mode: streams an already-collected dataset through the
    /// engine in global time order with virtual ticks, then finalizes.
    void replay(const std::vector<analysis::PhoneLog>& logs);

    // -- results ------------------------------------------------------------
    [[nodiscard]] const HealthEngine& health() const { return health_; }
    [[nodiscard]] const AlertEngine& alerts() const { return alerts_; }
    [[nodiscard]] const std::vector<Snapshot>& snapshots() const { return snapshots_; }
    [[nodiscard]] std::uint64_t framesSeen() const { return framesSeen_; }
    [[nodiscard]] std::uint64_t recordsConsumed() const { return recordsConsumed_; }

    /// Snapshot stream as JSON lines (one object per tick).
    [[nodiscard]] std::string snapshotsJsonl() const;
    /// The alert log as plain text lines.
    [[nodiscard]] std::string renderAlertLog() const;
    /// Final ASCII dashboard.
    [[nodiscard]] std::string renderDashboard() const;
    /// Publishes monitor counters/gauges under the "monitor" namespace.
    void publishMetrics(obs::MetricsRegistry& registry) const;

private:
    struct PhoneStream {
        SegmentTap tap;
        LineBuffer lines;
    };
    struct Presence {
        sim::TimePoint enrollAt;
        sim::TimePoint lastIngestAt;
        bool heard{false};
        fleet::OutageProbe probe;
        Liveness liveness{Liveness::NotEnrolled};
    };

    Presence& registerPhone(const std::string& phoneName, sim::TimePoint at);
    void consumeLines(const std::string& phoneName, std::string_view complete);
    void feedStream(const std::string& phoneName, PhoneStream& stream,
                    std::string_view released);
    /// Reports this stream's consumption watermark (bytes of the phone's
    /// log fully consumed as complete records) to the provenance tracker.
    void stampProvenance(const std::string& phoneName, const PhoneStream& stream);
    /// Schedules the next tick one period from now; each tick schedules
    /// its successor after it runs, until the campaign ends.
    void scheduleTick();
    void tick(sim::TimePoint now);

    MonitorConfig config_;
    HealthEngine health_;
    AlertEngine alerts_;
    std::map<std::string, PhoneStream> streams_;
    std::map<std::string, Presence> presence_;
    sim::Simulator* simulator_{nullptr};
    std::vector<Snapshot> snapshots_;
    std::uint64_t framesSeen_{0};
    std::uint64_t recordsConsumed_{0};
    sim::TimePoint lastEventAt_;
    bool finalized_{false};
    obs::ProvenanceTracker* provenance_{nullptr};
};

}  // namespace symfail::monitor
