#include "experiment/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/panic_stats.hpp"
#include "experiment/seed.hpp"
#include "monitor/monitor.hpp"
#include "simkernel/pool.hpp"
#include "srgm/analyze.hpp"

namespace symfail::experiment {
namespace {

/// Salt for per-metric bootstrap streams; combined with the cell index so
/// no bootstrap resampler shares a stream with any trial or other cell.
constexpr std::uint64_t kBootstrapLane = ~0ULL;

}  // namespace

const SummaryStats* CellSummary::find(const std::string& name) const {
    for (const auto& [metric, stats] : metrics) {
        if (metric == name) return &stats;
    }
    return nullptr;
}

std::size_t Summary::failedTrials() const {
    std::size_t failed = 0;
    for (const auto& cell : cells) failed += cell.failedCount;
    return failed;
}

TrialMetrics fieldTrialMetrics(const Cell& cell, std::uint64_t seed) {
    auto config = cell.toStudyConfig(seed);
    // Each trial carries its own online monitor; it is read-only and
    // draws no randomness, so the campaign results are unchanged and the
    // alert counts are a pure function of the trial seed.  It classifies
    // with the cell's threshold, like the batch analysis beside it.
    monitor::FleetMonitor fleetMonitor{monitor::MonitorConfig{
        .selfShutdownThresholdSeconds = config.selfShutdownThresholdSeconds}};
    config.fleetConfig.obs.monitor = &fleetMonitor;
    // Per-trial provenance: like the monitor it is read-only, so the sweep
    // rollups gain pipeline loss accounting at zero cost to determinism.
    obs::ProvenanceTracker provenance;
    config.fleetConfig.obs.provenance = &provenance;
    const core::FailureStudy study{std::move(config)};
    const auto results = study.runFieldStudy();
    const auto& mtbf = results.mtbf;
    const double panics = static_cast<double>(results.dataset.panics().size());
    const double hours = mtbf.observedPhoneHours;
    // The two Table 2 shares the paper headlines: KERN-EXEC 3 (56.3%)
    // and the E32USER-CBase heap/active-object family (~18%).
    double kernExec3SharePct = 0.0;
    for (const auto& row : results.table2) {
        if (row.panic == symbos::kKernExecAccessViolation) {
            kernExec3SharePct = row.percent;
        }
    }
    const double cbaseSharePct = analysis::categoryShare(
        results.dataset, symbos::PanicCategory::E32UserCBase);
    const auto prov = provenance.summary();
    double provE2eP95 = 0.0;
    for (const auto& stage : prov.stages) {
        if (stage.stage == "end-to-end") provE2eP95 = stage.p95;
    }
    // Fleet-level reliability-growth rollups (per-phone/per-version fits
    // are skipped: cell statistics aggregate the fleet numbers).  The
    // analysis is read-only over the collected dataset, so campaign
    // results are bit-identical with or without it.
    srgm::SrgmOptions srgmOptions;
    srgmOptions.perPhone = false;
    srgmOptions.perVersion = false;
    const srgm::SrgmReport srgmReport =
        srgm::analyzeSrgm(results.dataset, results.classification, srgmOptions);
    const srgm::GroupReport& srgmFleet = srgmReport.fleet;
    const bool srgmHasBest = srgmFleet.bestIndex < srgmFleet.fits.size();
    return {
        {"mtbf_freeze_hours", mtbf.mtbfFreezeHours},
        {"mtbf_self_shutdown_hours", mtbf.mtbfSelfShutdownHours},
        {"mtbf_any_hours", mtbf.mtbfAnyFailureHours},
        {"freeze_count", static_cast<double>(mtbf.freezeCount)},
        {"self_shutdown_count", static_cast<double>(mtbf.selfShutdownCount)},
        {"panic_count", panics},
        {"panics_per_khour", hours > 0.0 ? 1000.0 * panics / hours : 0.0},
        {"kern_exec3_share_pct", kernExec3SharePct},
        {"cbase_share_pct", cbaseSharePct},
        {"panic_burst_fraction", analysis::burstFraction(results.fig3BurstLengths)},
        {"coalescence_related_fraction", results.fig5Coalescence.relatedFraction()},
        {"transport_delivery_ratio", results.fleet.transport.deliveryRatio()},
        {"observed_phone_hours", hours},
        {"boots", static_cast<double>(results.fleet.totalBoots)},
        {"monitor_alerts_fired", static_cast<double>(fleetMonitor.alerts().fired())},
        {"monitor_alerts_cleared",
         static_cast<double>(fleetMonitor.alerts().cleared())},
        {"monitor_related_panics",
         static_cast<double>(fleetMonitor.health().coalescence().relatedCount)},
        {"monitor_multi_bursts",
         static_cast<double>(fleetMonitor.health().multiBursts())},
        {"provenance_delivery_ratio",
         prov.created == 0 ? 1.0
                           : static_cast<double>(prov.delivered) /
                                 static_cast<double>(prov.created)},
        {"provenance_lost_records",
         static_cast<double>(prov.lostWire + prov.lostOutage)},
        {"provenance_pending_records", static_cast<double>(prov.pending)},
        {"provenance_e2e_p95_s", provE2eP95},
        {"provenance_conserved", prov.conserved() ? 1.0 : 0.0},
        // Measurement validity: how well the pipeline recovers ground
        // truth (degrades as osfault planes bite; 1.0 with them off).
        {"recovery_freeze_precision", results.evaluation.freezeDetection.precision()},
        {"recovery_freeze_recall", results.evaluation.freezeDetection.recall()},
        {"recovery_self_shutdown_precision",
         results.evaluation.selfShutdownDetection.precision()},
        {"recovery_self_shutdown_recall",
         results.evaluation.selfShutdownDetection.recall()},
        {"panic_capture_rate", results.evaluation.panicCaptureRate()},
        {"osfault_flash_activations",
         static_cast<double>(results.fleet.osfault.flash.activations)},
        {"osfault_mem_oom_kills",
         static_cast<double>(results.fleet.osfault.memory.oomKills)},
        {"osfault_clock_jumps",
         static_cast<double>(results.fleet.osfault.clock.jumps)},
        {"osfault_radio_activations",
         static_cast<double>(results.fleet.osfault.radio.activations)},
        {"logger_record_anomalies",
         static_cast<double>(results.fleet.loggerRecordAnomalies)},
        {"logger_daemon_deaths",
         static_cast<double>(results.fleet.loggerDaemonDeaths)},
        // Reliability growth: which NHPP model the fleet sequence selects,
        // the Laplace trend, and how the held-out forecast scored.
        {"srgm_events", static_cast<double>(srgmFleet.events)},
        {"srgm_best_model",
         srgmHasBest ? static_cast<double>(srgmFleet.bestIndex) : -1.0},
        {"srgm_laplace_trend", srgmFleet.laplace},
        {"srgm_ks_distance",
         srgmHasBest ? srgmFleet.fits[srgmFleet.bestIndex].ksDistance : 0.0},
        {"srgm_holdout_valid", srgmFleet.holdout.valid ? 1.0 : 0.0},
        {"srgm_holdout_count_rel_err",
         srgmFleet.holdout.valid ? srgmFleet.holdout.countRelError : 0.0},
        {"srgm_preq_gain_vs_hpp",
         srgmFleet.holdout.valid ? srgmFleet.holdout.preqGainVsHpp : 0.0},
    };
}

Runner::Runner(RunnerOptions options) : options_{std::move(options)} {
    if (!options_.trialFn) options_.trialFn = fieldTrialMetrics;
}

Summary Runner::run(const Grid& grid) const {
    if (options_.trials < 1) {
        throw std::runtime_error("experiment: trials must be >= 1");
    }
    if (grid.cells().empty()) {
        throw std::runtime_error("experiment: the grid has no cells");
    }

    Summary summary;
    summary.masterSeed = options_.masterSeed;
    summary.trialsPerCell = options_.trials;

    const auto trials = static_cast<std::size_t>(options_.trials);
    const std::size_t taskCount = grid.size() * trials;
    summary.trials.resize(taskCount);

    // Each task writes exclusively to its own pre-sized slot; the task
    // body depends only on (master seed, cell, trial), so any worker
    // count yields the same slots — see pool.hpp's determinism contract.
    // The trials that run at once split the caller's threads, and each
    // trial's campaign runs its phones on its share.
    const int threads = sim::taskThreads();
    const auto running =
        std::min(static_cast<std::size_t>(std::max(options_.jobs, 1)), taskCount);
    const int share = std::max(1, threads / static_cast<int>(running));
    sim::runWorkStealing(taskCount, options_.jobs, [&](std::size_t index) {
        const std::size_t cellIndex = index / trials;
        const std::size_t trialIndex = index % trials;
        TrialResult& slot = summary.trials[index];
        slot.seed = deriveTrialSeed(options_.masterSeed, cellIndex, trialIndex);
        try {
            slot.metrics = options_.trialFn(grid.cells()[cellIndex], slot.seed);
            slot.ok = true;
        } catch (const std::exception& error) {
            slot.ok = false;
            slot.error = error.what();
        } catch (...) {
            slot.ok = false;
            slot.error = "unknown exception";
        }
    }, share);

    // Gather the samples in (cell, trial) order — the only order the
    // output ever sees — into one list of (cell, metric) pairs, each
    // cell's metrics in first-seen order.
    struct MetricSamples {
        std::size_t cell{0};
        std::string name;
        std::vector<double> values;
    };
    std::vector<MetricSamples> metrics;
    summary.cells.resize(grid.size());
    for (std::size_t cellIndex = 0; cellIndex < grid.size(); ++cellIndex) {
        CellSummary& cell = summary.cells[cellIndex];
        cell.cell = grid.cells()[cellIndex];
        const std::size_t first = metrics.size();
        for (std::size_t t = 0; t < trials; ++t) {
            const TrialResult& trial = summary.trials[cellIndex * trials + t];
            if (!trial.ok) {
                ++cell.failedCount;
                cell.errors.push_back("trial " + std::to_string(t) + " (seed " +
                                      std::to_string(trial.seed) +
                                      "): " + trial.error);
                continue;
            }
            for (const auto& [name, value] : trial.metrics) {
                std::size_t slot = first;
                while (slot < metrics.size() && metrics[slot].name != name) ++slot;
                if (slot == metrics.size()) metrics.push_back({cellIndex, name, {}});
                metrics[slot].values.push_back(value);
            }
        }
    }

    // Summarize every pair on the caller's threads.  Each pair draws from
    // its own bootstrap stream into its own slot, so the summaries do not
    // depend on the worker count either.  A worker must have enough
    // bootstrap draws to repay its start (tens of microseconds), so with
    // none (no bootstrap, or one trial a cell) the summaries run inline.
    constexpr std::size_t kDrawsPerWorker = 10'000;
    const auto resamples = static_cast<std::size_t>(std::max(options_.bootstrapResamples, 0));
    std::size_t draws = 0;
    for (const MetricSamples& metric : metrics) {
        if (metric.values.size() > 1) draws += metric.values.size() * resamples;
    }
    const auto workers = std::min(static_cast<std::size_t>(threads),
                                  std::max<std::size_t>(draws / kDrawsPerWorker, 1));
    std::vector<SummaryStats> summaries(metrics.size());
    sim::runWorkStealing(metrics.size(), static_cast<int>(workers), [&](std::size_t index) {
        const MetricSamples& metric = metrics[index];
        const std::uint64_t bootstrapSeed = deriveNamedSeed(
            deriveTrialSeed(options_.masterSeed, metric.cell, kBootstrapLane),
            metric.name.c_str());
        summaries[index] =
            summarize(metric.values, bootstrapSeed, options_.bootstrapResamples);
    });
    for (std::size_t index = 0; index < metrics.size(); ++index) {
        summary.cells[metrics[index].cell].metrics.emplace_back(
            std::move(metrics[index].name), summaries[index]);
    }

    if (options_.metrics != nullptr) {
        auto& registry = *options_.metrics;
        registry.counter("experiment", "cells", "grid cells swept")
            .inc(summary.cells.size());
        registry.counter("experiment", "trials_run", "trials executed").inc(taskCount);
        registry
            .counter("experiment", "trials_failed", "trials that threw an exception")
            .inc(summary.failedTrials());
        for (const auto& cell : summary.cells) {
            const std::string label = cell.cell.label();
            for (const auto& [name, stats] : cell.metrics) {
                registry
                    .gauge("experiment", name + "_mean", "cell", label,
                           "per-cell trial mean")
                    .set(stats.mean);
                registry
                    .gauge("experiment", name + "_stddev", "cell", label,
                           "per-cell trial stddev")
                    .set(stats.stddev);
            }
        }
    }
    return summary;
}

}  // namespace symfail::experiment
