// The deployment campaign (Section 6's experimental setup).
//
// 25 Symbian smart phones — students, researchers and professors in Italy
// and the USA — running the failure logger under normal use for 14
// months, with staggered enrollment (the deployment began in September
// 2005 and phones joined over time, which is why the paper's observed
// phone-hours are well below 25 x 14 months).
//
// The fleet derives the fault-activation rates from the paper's *rates*
// (MTBFr 313 h, MTBS 250 h, one panic per ~285 wall-clock hours), so the
// regenerated tables match the paper in shape and rate regardless of the
// configured campaign length; raw counts scale with observed time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/evaluator.hpp"
#include "faults/rates.hpp"
#include "obs/accountant.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "logger/logger.hpp"
#include "logger/user_reports.hpp"
#include "osfault/phone_planes.hpp"
#include "phone/device.hpp"
#include "phone/ground_truth.hpp"
#include "transport/channel.hpp"
#include "transport/metrics.hpp"
#include "transport/upload_agent.hpp"

namespace symfail::fleet {

class CampaignObserver;

/// Collection-path configuration: how each phone's Log File travels to the
/// collection server.  Default: chunked uploads over a lossy GPRS-like
/// channel with retries — the only collection path.  Disabled, the server
/// receives nothing and `FleetResult::collectedLogs` stays empty; only the
/// phone-side logs remain for analysis.
struct TransportOptions {
    bool enabled = true;
    /// Phone -> server path (frames).
    transport::ChannelConfig dataChannel = transport::ChannelConfig::gprs();
    /// Server -> phone path (acks).
    transport::ChannelConfig ackChannel = transport::ChannelConfig::gprs();
    transport::UploadPolicy policy{};
};

/// Observability attachments (all non-owning, all optional).  Attaching
/// any of them never perturbs the campaign: traces are keyed to simulated
/// time, metrics are published after the run, and the profiler only reads
/// the host clock around dispatches.  With all three null the campaign is
/// bit-identical to a build without observability.  A trace sink or a
/// profiler runs the phones on the calling thread alone: neither is
/// thread-safe, and the profiler's categories must add up to the simulate
/// span on one clock.
struct ObsOptions {
    obs::TraceSink* trace{nullptr};
    obs::MetricsRegistry* metrics{nullptr};
    obs::CampaignProfiler* profiler{nullptr};
    /// Streaming campaign observer (the fleet-health monitor).  Receives
    /// the server's ingest stream plus lifecycle callbacks; read-only with
    /// respect to the campaign (see fleet/observer.hpp for the contract).
    CampaignObserver* monitor{nullptr};
    /// End-to-end failure provenance: assigns every logger record a
    /// lineage, stamps it through log -> chunking -> wire -> server ->
    /// monitor, and resolves a terminal outcome at campaign end (the
    /// tracker is finalized inside runCampaign).  Like the other
    /// attachments it never perturbs the campaign.  When `trace` is also
    /// set, failure records additionally render as Perfetto flow chains.
    obs::ProvenanceTracker* provenance{nullptr};
    /// Capacity accounting: a periodic read-only sweep records each
    /// subsystem's approxMemoryBytes() into the ledger ("simkernel",
    /// "phone", "logger", "transport", "server", "monitor"), plus one
    /// final sweep at campaign end.  Each phone samples its own bytes at
    /// the sweep instants, in its own simulator, and the fleet's sweep
    /// records the sums.  Values derive from simulated state only, so the
    /// ledger is bit-identical across runs and the campaign tables are
    /// bit-identical with accounting on or off.
    obs::ResourceAccountant* accountant{nullptr};
    /// Simulated-clock cadence of the accounting sweep.
    sim::Duration accountingInterval = sim::Duration::hours(24);
};

/// Campaign configuration.
struct FleetConfig {
    int phoneCount = 25;
    sim::Duration campaign = sim::Duration::days(425);  ///< ~14 months
    /// Phones join uniformly over this window from campaign start.
    sim::Duration enrollmentWindow = sim::Duration::days(340);
    std::uint64_t seed = 2007;
    logger::LoggerConfig loggerConfig{};

    /// Paper rates used to derive targets (events per wall-clock hour).
    double freezesPerHour = 1.0 / 313.0;
    double selfShutdownsPerHour = 1.0 / 250.0;
    double panicsPerHour = 396.0 / 112'680.0;
    /// User-report channel for output failures (the future-work
    /// extension); set reportProbability to 0 to disable.
    logger::UserReportConfig userReportConfig{};

    /// Log transport to the collection server.  Purely observational: the
    /// upload path never perturbs device behaviour, so the regenerated
    /// tables are bit-identical with transport on or off.
    TransportOptions transport{};

    /// Tracing, metrics and profiling attachments.
    ObsOptions obs{};

    /// OS-interface fault planes (osfault subsystem).  All rates default
    /// to zero: no planes are constructed and the campaign is bit-identical
    /// to a build without the subsystem.  Plane draws come from a dedicated
    /// seed substream, so enabling a plane never shifts the workload or
    /// fault-injector streams.
    osfault::PlaneConfig osfault{};
};

/// Campaign output: everything the analysis pipeline and the evaluator
/// need, detached from the simulation objects.
struct FleetResult {
    std::vector<analysis::PhoneLog> logs;
    std::vector<std::string> phoneNames;
    std::vector<phone::GroundTruth> truths;  ///< parallel to phoneNames

    /// What the collection server holds at campaign end (per-phone best
    /// copy, with coverage attached); empty when transport is disabled.
    std::vector<analysis::PhoneLog> collectedLogs;
    /// Transport-layer accounting for the campaign.
    transport::TransportReport transport;

    // Fleet-level ground totals (from the injectors).
    std::uint64_t panicsInjected{0};
    std::uint64_t hangsInjected{0};
    std::uint64_t spontaneousRebootsInjected{0};
    std::uint64_t outputFailuresInjected{0};
    std::uint64_t userReportsFiled{0};
    std::uint64_t totalBoots{0};
    /// Events fired, summed over the phones' simulators and the fleet's.
    std::uint64_t simulatorEvents{0};
    /// Largest pending-event count any one simulator saw at a dispatch:
    /// the deepest single-phone queue, or the fleet's if deeper (always
    /// tracked; deterministic).
    std::size_t queueDepthPeak{0};

    /// Fault-plane activity (all zeros when no planes were enabled).
    osfault::CampaignPlaneStats osfault;
    /// Logger-side beats-file anomalies observed at boot classification
    /// (torn tails + malformed lines), summed over phones.
    std::uint64_t loggerRecordAnomalies{0};
    /// Logger daemons that died under the logger (OOM-kill), summed.
    std::uint64_t loggerDaemonDeaths{0};

    /// Truth map view for the evaluator (pointers into `truths`).
    [[nodiscard]] analysis::TruthMap truthMap() const;
};

/// Derives the fault StudyPlan from a fleet configuration (exposed for
/// tests and the calibration report).
[[nodiscard]] faults::StudyPlan derivePlan(const FleetConfig& config);

/// Expected observed wall-clock phone-hours under the staggered
/// enrollment.
[[nodiscard]] double expectedObservedHours(const FleetConfig& config);

/// Sets the campaign length to `days`.  An enrollment window longer than
/// the campaign shrinks to half of it, so a short campaign still
/// staggers its phones.
void setCampaignDays(FleetConfig& config, long long days);

/// Runs the whole campaign; deterministic for a given config, whatever
/// the worker count.  Each phone runs in a simulator of its own, with its
/// own collection-server shard; worker threads run every phone through a
/// window of simulated time, and the calling thread then delivers what the
/// phones journaled to the observers (fleet/observer.hpp).  The workers
/// are the caller's thread share up to the phone count (sim::taskThreads():
/// every hardware thread outside a pool task, the share a sweep grants
/// each trial inside one), or the calling thread alone with a trace sink
/// or a profiler attached.
[[nodiscard]] FleetResult runCampaign(const FleetConfig& config);

}  // namespace symfail::fleet
