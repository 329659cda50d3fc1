// Public façade: run the paper's two studies and get every table/figure.
// See core/render.hpp for text output and core/export.hpp for CSV export.
//
// Quickstart:
//   symfail::core::StudyConfig config;          // paper-calibrated defaults
//   symfail::core::FailureStudy study{config};
//   auto forumResults = study.runForumStudy();  // Section 4 / Table 1
//   auto fieldResults = study.runFieldStudy();  // Section 6 / Tables 2-4,
//                                               // Figures 2, 3, 5, 6
// Render with core/render.hpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/apps_correlation.hpp"
#include "analysis/coalescence.hpp"
#include "analysis/crash_families.hpp"
#include "analysis/dataset.hpp"
#include "analysis/discriminator.hpp"
#include "analysis/evaluator.hpp"
#include "analysis/mtbf.hpp"
#include "analysis/panic_stats.hpp"
#include "fleet/fleet.hpp"
#include "forum/study.hpp"

namespace symfail::core {

/// Everything configurable, with defaults calibrated to the paper.
struct StudyConfig {
    forum::CorpusConfig forumConfig{};
    std::uint64_t forumSeed = 533;
    fleet::FleetConfig fleetConfig{};
    /// Coalescence window (Figure 4/5; the paper uses five minutes).
    double coalescenceWindowSeconds = analysis::kCoalescenceWindowSeconds;
    /// Self-shutdown threshold (Figure 2; the paper uses 360 s).
    double selfShutdownThresholdSeconds = analysis::kSelfShutdownThresholdSeconds;
};

/// All Section 6 artifacts in one bundle.
struct FieldStudyResults {
    fleet::FleetResult fleet;
    analysis::LogDataset dataset;
    analysis::ShutdownClassification classification;
    analysis::MtbfReport mtbf;
    std::vector<analysis::PanicTableRow> table2;
    sim::FreqCounter fig3BurstLengths;
    analysis::CoalescenceResult fig5Coalescence;
    analysis::ActivityCorrelation table3;
    sim::FreqCounter fig6AppCounts;
    std::vector<analysis::AppCorrelationRow> table4;
    analysis::CrashFamilyReport crashFamilies;
    analysis::EvaluationReport evaluation;
};

/// The study runner.
class FailureStudy {
public:
    explicit FailureStudy(StudyConfig config) : config_{std::move(config)} {}

    /// Section 4: the web-forum characterization.
    [[nodiscard]] forum::ForumStudyResult runForumStudy() const;

    /// Section 6: the fleet campaign plus the full analysis pipeline.
    [[nodiscard]] FieldStudyResults runFieldStudy() const;

    /// Analysis-only entry point: runs the pipeline over already-collected
    /// logs (e.g. the collection server's copies), without ground truth.
    [[nodiscard]] FieldStudyResults analyzeLogs(std::vector<analysis::PhoneLog> logs) const;


private:
    void runPipeline(FieldStudyResults& results) const;
    StudyConfig config_;
};

}  // namespace symfail::core
