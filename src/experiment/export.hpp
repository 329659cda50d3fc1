// Sweep result export: machine-readable JSON and CSV, plus the human
// report the CLI prints.  All renderings iterate the summary in (cell,
// trial, metric) order with fixed float formatting, so a fixed master
// seed produces byte-identical files for any `--jobs` value.
#pragma once

#include <string>
#include <vector>

#include "experiment/runner.hpp"

namespace symfail::experiment {

/// One JSON document: master seed, per-cell parameter block, per-trial
/// raw metrics (with seeds and errors), and per-metric mean / stddev /
/// Student-t CI / bootstrap CI.
[[nodiscard]] std::string sweepToJson(const Summary& summary);

/// Writes `sweep_summary.csv` (one row per cell x metric) and
/// `sweep_trials.csv` (one row per trial x metric) into `directory`,
/// creating it if missing.  Returns the paths written.  Throws
/// std::runtime_error on I/O failure.
std::vector<std::string> exportSweepCsv(const Summary& summary,
                                        const std::string& directory);

/// Aligned human-readable report (per-cell metric table with CIs).
[[nodiscard]] std::string renderSweepReport(const Summary& summary);

}  // namespace symfail::experiment
