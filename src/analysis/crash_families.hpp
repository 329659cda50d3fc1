// Crash-family analysis: the server-side view of the structured dumps.
//
// Clusters every dump in the dataset into crash families (crash/cluster.hpp)
// and derives the family-level table the report prints: count, share of
// all dumps, family MTBF over the observed phone-time, per-phone spread
// and the most frequent running application.  This upgrades Table 2 from a
// (category, type) histogram into a clustering workload: one family per
// failure *mechanism*, not per panic code.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "crash/cluster.hpp"

namespace symfail::analysis {

/// One row of the crash-family table (sorted: dumps desc, id asc).
struct CrashFamilyRow {
    std::string familyId;
    symbos::PanicId panic;
    std::size_t dumps{0};
    double sharePct{0.0};     ///< of all dumps in the dataset
    double mtbfHours{0.0};    ///< total observed phone-time / dumps
    std::size_t phones{0};    ///< distinct phones that hit this family
    std::string topApp;       ///< most frequent running app ("" when none)
    std::size_t distinctSignatures{0};
    std::vector<std::string> frames;  ///< representative normalized frames
};

struct CrashFamilyReport {
    std::vector<CrashFamilyRow> rows;
    std::size_t totalDumps{0};
    [[nodiscard]] std::size_t familyCount() const { return rows.size(); }
};

/// Clusters the dataset's dumps.  Deterministic: phones arrive in the
/// dataset's (sorted) order and records in log order, so the same dataset
/// always yields byte-identical rows.
[[nodiscard]] CrashFamilyReport buildCrashFamilyReport(const LogDataset& dataset);

}  // namespace symfail::analysis
