// Panic classification (Table 2) and burst analysis (Figure 3).
#pragma once

#include <vector>

#include "analysis/dataset.hpp"
#include "simkernel/histogram.hpp"
#include "symbos/panic.hpp"

namespace symfail::analysis {

/// One row of the regenerated Table 2.
struct PanicTableRow {
    symbos::PanicId panic;
    std::size_t count{0};
    double percent{0.0};       ///< measured share of all panics
    double paperPercent{0.0};  ///< the paper's share, for side-by-side output
};

/// Regenerates Table 2 from the recorded panics.  Rows follow the paper's
/// order; panics outside the paper's twenty classes (if any) are appended.
[[nodiscard]] std::vector<PanicTableRow> panicTable(const LogDataset& dataset);

/// Share of panics in a category (e.g. all E32USER-CBase rows — the heap
/// management share the abstract quotes as 18%).
[[nodiscard]] double categoryShare(const LogDataset& dataset,
                                   symbos::PanicCategory category);

/// Figure 3's burst gap: panics at most five minutes apart share a burst.
inline constexpr double kBurstGapSeconds = 300.0;

/// Figure 3: groups each phone's panics into bursts (inter-panic gap at
/// most `gapSeconds`) and returns the burst-length frequency counter.
[[nodiscard]] sim::FreqCounter burstLengths(const LogDataset& dataset,
                                            double gapSeconds = kBurstGapSeconds);

/// Fraction of bursts with length >= 2 (the paper reports ~25%).
[[nodiscard]] double burstFraction(const sim::FreqCounter& lengths);

}  // namespace symfail::analysis
