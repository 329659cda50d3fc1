// Capacity self-observability: the `symfail perf` scaling report.
//
// ROADMAP item 1 asks how far the campaign scales beyond the paper's 25
// phones.  This module answers with measurements instead of guesses: it
// runs the same campaign at a ladder of fleet sizes and reports
// throughput (phone-hours simulated per wall-clock second), footprint
// (bytes per phone, split per subsystem) and host peak RSS for every
// rung.  Each rung runs twice: once with a ResourceAccountant attached,
// timed, with its phones on every hardware thread; then once more with a
// sampling CampaignProfiler too, which runs the phones on one thread, for
// the hotspot and phase tables alone.
//
// Each cell's report is split in two:
//   - the *accounting* section derives only from simulated state
//     (subsystem byte probes, queue-depth peak, event counts, expected
//     phone-hours) and is byte-identical across runs at a fixed seed;
//   - the *host* section (wall seconds, phone-hours/sec, peak RSS,
//     hotspot estimates) measures this machine and is not.
// Consumers that diff reports — the determinism test, the CI smoke run —
// compare accounting sections only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/accountant.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace symfail::core {

/// Configuration of one scaling run.  Every rung runs the default
/// `fleet::FleetConfig` at its fleet size, `days` and `seed`.
struct PerfOptions {
    /// Fleet sizes to ladder through, one campaign per entry.
    std::vector<int> fleetSizes{25, 10'000};
    /// Campaign length per cell (short: throughput and bytes/phone
    /// stabilize within days, not months).
    long long days = 2;
    std::uint64_t seed = 2007;
    /// Simulated-clock cadence of the accounting sweep.
    long long sampleHours = 6;
    /// Profiler sampling stride (1 = time every dispatch).
    std::uint64_t samplingStride = 64;
};

/// One rung of the scaling ladder.
struct PerfCell {
    int phones{0};
    long long days{0};

    // -- accounting section: deterministic at a fixed seed --------------
    std::vector<obs::ResourceAccountant::Account> accounts;
    std::uint64_t totalBytes{0};      ///< Final-sweep sum across subsystems.
    std::uint64_t peakTotalBytes{0};  ///< Largest swept sum.
    double bytesPerPhone{0.0};        ///< peakTotalBytes / phones.
    std::uint64_t accountingSamples{0};
    std::size_t queueDepthPeak{0};
    std::uint64_t simulatorEvents{0};
    double phoneHours{0.0};  ///< Expected observed phone-hours (enrollment-aware).

    // -- host section: measures this machine, not the simulation --------
    double wallSeconds{0.0};
    double phoneHoursPerSec{0.0};
    std::uint64_t peakRssBytes{0};
    std::vector<obs::CampaignProfiler::CategoryProfile> hotspots;
    std::vector<obs::CampaignProfiler::PhaseProfile> phases;
};

/// The whole ladder.
struct PerfReport {
    std::vector<PerfCell> cells;
    std::uint64_t seed{0};
    long long sampleHours{0};
    std::uint64_t samplingStride{0};
};

/// Runs one campaign per fleet size and measures it.  Deterministic in
/// the accounting sections for a given options value.
[[nodiscard]] PerfReport runPerfScaling(const PerfOptions& options);

/// Human-readable scaling report (one block per cell: throughput,
/// footprint ledger, hotspot table).
[[nodiscard]] std::string renderPerfText(const PerfReport& report);

/// JSON document; every cell carries the accounting/host split described
/// above, so `python -c "json.load(...)['cells'][i]['accounting']"` is a
/// stable fingerprint.
[[nodiscard]] std::string perfToJson(const PerfReport& report);

/// Writes perf_scaling.csv (one row per cell x subsystem plus a "total"
/// row carrying the host columns) into `directory`, created if missing.
/// Returns the paths written.  Throws std::runtime_error on I/O failure.
std::vector<std::string> exportPerfCsv(const PerfReport& report,
                                       const std::string& directory);

/// Publishes per-cell gauges under the "perf" subsystem, labeled by
/// fleet size (perf.bytes_per_phone{phones="25"}, …).
void publishPerfMetrics(const PerfReport& report, obs::MetricsRegistry& registry);

}  // namespace symfail::core
