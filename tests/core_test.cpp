// Tests for the core façade and renderers.
#include <gtest/gtest.h>

#include "core/render.hpp"
#include "core/study.hpp"

namespace symfail::core {
namespace {

StudyConfig tinyConfig() {
    StudyConfig config;
    config.fleetConfig.phoneCount = 2;
    config.fleetConfig.campaign = sim::Duration::days(20);
    config.fleetConfig.enrollmentWindow = sim::Duration::days(4);
    config.fleetConfig.seed = 17;
    config.fleetConfig.freezesPerHour *= 10.0;
    config.fleetConfig.selfShutdownsPerHour *= 10.0;
    config.fleetConfig.panicsPerHour *= 10.0;
    config.forumConfig.failureReports = 150;
    return config;
}

TEST(FailureStudy, ForumStudyRuns) {
    const FailureStudy study{tinyConfig()};
    const auto result = study.runForumStudy();
    EXPECT_GT(result.classifiedFailures, 100u);
    EXPECT_FALSE(renderTable1(result).empty());
    EXPECT_FALSE(renderForumSummary(result).empty());
}

TEST(FailureStudy, FieldStudyBundlesEverything) {
    const FailureStudy study{tinyConfig()};
    const auto results = study.runFieldStudy();
    EXPECT_FALSE(results.fleet.logs.empty());
    EXPECT_EQ(results.table2.size(), 20u);
    EXPECT_GT(results.dataset.panics().size(), 0u);
    EXPECT_GT(results.fig3BurstLengths.total(), 0u);
    EXPECT_EQ(results.fig5Coalescence.panics.size(),
              results.dataset.panics().size());
}

TEST(FailureStudy, AnalyzeLogsWithoutGroundTruth) {
    const FailureStudy study{tinyConfig()};
    const auto full = study.runFieldStudy();
    // Re-analyze from the raw logs alone (the collection server's path).
    const auto replay = study.analyzeLogs(full.fleet.logs);
    EXPECT_EQ(replay.dataset.panics().size(), full.dataset.panics().size());
    EXPECT_EQ(replay.classification.selfShutdowns.size(),
              full.classification.selfShutdowns.size());
    EXPECT_EQ(replay.mtbf.freezeCount, full.mtbf.freezeCount);
}

TEST(FailureStudy, ThresholdConfigPropagates) {
    auto config = tinyConfig();
    config.selfShutdownThresholdSeconds = 30.0;  // aggressive: fewer self
    const FailureStudy strictStudy{config};
    const auto strict = strictStudy.runFieldStudy();
    config.selfShutdownThresholdSeconds = 3'600.0;  // lax: more self
    const FailureStudy laxStudy{config};
    const auto lax = laxStudy.runFieldStudy();
    EXPECT_LE(strict.classification.selfShutdowns.size(),
              lax.classification.selfShutdowns.size());
}

TEST(Render, AllArtifactsMentionPaperReference) {
    const FailureStudy study{tinyConfig()};
    const auto results = study.runFieldStudy();
    EXPECT_NE(renderTable2(results).find("paper"), std::string::npos);
    EXPECT_NE(renderFig3(results).find("paper"), std::string::npos);
    EXPECT_NE(renderFig5(results).find("paper"), std::string::npos);
    EXPECT_NE(renderTable3(results).find("paper"), std::string::npos);
    EXPECT_NE(renderFig6(results).find("paper"), std::string::npos);
    EXPECT_NE(renderHeadline(results).find("313"), std::string::npos);
    EXPECT_NE(renderEvaluation(results).find("precision"), std::string::npos);
    // Per-phone dispersion lists every phone.
    const auto perPhone = renderPerPhone(results);
    EXPECT_NE(perPhone.find("phone-0"), std::string::npos);
    EXPECT_NE(perPhone.find("phone-1"), std::string::npos);
}

}  // namespace
}  // namespace symfail::core
