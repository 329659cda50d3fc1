// Running-application analysis (Figure 6 and Table 4).
//
// Figure 6: the distribution of the number of running applications at
// panic time (the paper finds the mode at one — concurrency does not
// drive panics).  Table 4: which applications are present when each panic
// category strikes, split by the HL outcome of the panic.
#pragma once

#include <string>
#include <vector>

#include "analysis/coalescence.hpp"
#include "analysis/dataset.hpp"
#include "simkernel/histogram.hpp"

namespace symfail::analysis {

/// Figure 6: frequency of running-application counts at panic time.
[[nodiscard]] sim::FreqCounter runningAppCounts(const LogDataset& dataset);

/// One Table 4 cell aggregate: how often `app` was running when a panic of
/// `category` with HL outcome `relation` occurred, as a percentage of all
/// panics.
struct AppCorrelationRow {
    symbos::PanicCategory category{};
    PanicRelation relation{PanicRelation::Isolated};
    std::string app;
    std::size_t count{0};
    double percentOfAllPanics{0.0};
};

/// Table 4, flattened to (category, outcome, app) rows, sorted by
/// descending percentage.  Rows below `minPercent` are dropped (the paper
/// also reports only the significant cells, covering ~53% of panics).
[[nodiscard]] std::vector<AppCorrelationRow> appCorrelation(
    const CoalescenceResult& result, double minPercent = 0.2);

/// Per-application totals across all categories (Table 4's "Total" row).
struct AppTotalRow {
    std::string app;
    double percentOfAllPanics{0.0};
};
[[nodiscard]] std::vector<AppTotalRow> appTotals(const LogDataset& dataset);

}  // namespace symfail::analysis
