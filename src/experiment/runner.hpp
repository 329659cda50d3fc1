// The experiment engine: replicated trials over a sweep grid.
//
// Every headline number the repo reproduces (MTBF, panic rates, the
// freeze/self-shutdown split) is a Monte Carlo draw; one draw cannot say
// whether a change moved a metric or re-rolled the dice.  The Runner runs
// N independent trials per grid cell across a work-stealing pool, derives
// each trial's campaign seed from (master seed, cell, trial) only — see
// experiment/seed.hpp — and aggregates per-trial scalar metrics into
// mean / stddev / 95% CI (Student-t and bootstrap).  The trials that run
// at once split the caller's threads, and each trial's campaign runs its
// phones on its share.  Output is byte-identical for any `jobs` value,
// including 1.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "experiment/grid.hpp"
#include "experiment/stats.hpp"
#include "obs/metrics.hpp"

namespace symfail::experiment {

/// Ordered (metric name, value) pairs one trial produces.
using TrialMetrics = std::vector<std::pair<std::string, double>>;

/// One trial's outcome.  A trial that throws is recorded here — with the
/// exception text — without poisoning its siblings.
struct TrialResult {
    std::uint64_t seed{0};
    bool ok{false};
    std::string error;  ///< Exception text when !ok.
    TrialMetrics metrics;
};

/// Aggregated replication statistics for one grid cell.
struct CellSummary {
    Cell cell;
    std::size_t failedCount{0};
    /// Per-metric summaries in first-seen metric order.
    std::vector<std::pair<std::string, SummaryStats>> metrics;
    /// "trial 3 (seed 123...): what()" for each failed trial.
    std::vector<std::string> errors;

    /// Summary for a named metric; nullptr when absent.
    [[nodiscard]] const SummaryStats* find(const std::string& name) const;
};

/// The whole sweep's result matrix.
struct Summary {
    std::uint64_t masterSeed{0};
    int trialsPerCell{0};
    std::vector<CellSummary> cells;
    std::vector<TrialResult> trials;  ///< All trials, (cell, trial)-ordered.

    [[nodiscard]] std::size_t failedTrials() const;
};

/// Runs the default field-study trial for `cell` with `seed` and extracts
/// the scalar metric set (MTBF triple, failure counts, panic rate,
/// coalescence fraction, transport delivery, observed hours, boots).
[[nodiscard]] TrialMetrics fieldTrialMetrics(const Cell& cell, std::uint64_t seed);

/// Engine configuration.
struct RunnerOptions {
    int trials{5};
    /// Trials run at a time; each is granted threads ÷ min(jobs, cells ×
    /// trials), at least 1, of the caller's sim::taskThreads() for its
    /// phones.
    int jobs{1};
    std::uint64_t masterSeed{2007};
    /// Bootstrap resamples per metric; <= 0 disables the bootstrap CI.
    int bootstrapResamples{1000};
    /// Per-cell aggregate rollup destination (optional, non-owning).
    obs::MetricsRegistry* metrics{nullptr};
    /// The trial body; defaults to `fieldTrialMetrics`.  Exposed so tests
    /// can substitute cheap or deliberately failing trials.
    std::function<TrialMetrics(const Cell&, std::uint64_t seed)> trialFn;
};

/// The engine.
class Runner {
public:
    explicit Runner(RunnerOptions options);

    /// Executes trials x cells and aggregates.  Throws std::runtime_error
    /// on invalid options (trials < 1, empty grid).
    [[nodiscard]] Summary run(const Grid& grid) const;


private:
    RunnerOptions options_;
};

}  // namespace symfail::experiment
