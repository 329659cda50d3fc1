// Tests for the forum study: the reconstructed Table 1, corpus generation,
// the rule classifier, and the end-to-end study statistics.
#include <gtest/gtest.h>

#include "forum/classifier.hpp"
#include "forum/generator.hpp"
#include "forum/study.hpp"
#include "forum/taxonomy.hpp"

namespace symfail::forum {
namespace {

// -- Taxonomy ----------------------------------------------------------------

TEST(Taxonomy, PaperTable1SumsTo100) {
    double total = 0.0;
    for (const auto& cell : paperTable1()) total += cell.percent;
    EXPECT_NEAR(total, 100.0, 0.1);
}

TEST(Taxonomy, PaperMarginalsMatchText) {
    // Section 4.1: output 36.3%, freeze 25.3%, unstable 18.5%,
    // self-shutdown 16.9%, input 3%.
    EXPECT_NEAR(paperFailureTypePercent(FailureType::OutputFailure), 36.3, 0.1);
    EXPECT_NEAR(paperFailureTypePercent(FailureType::Freeze), 25.3, 0.1);
    EXPECT_NEAR(paperFailureTypePercent(FailureType::UnstableBehavior), 18.5, 0.1);
    EXPECT_NEAR(paperFailureTypePercent(FailureType::SelfShutdown), 17.0, 0.1);
    EXPECT_NEAR(paperFailureTypePercent(FailureType::InputFailure), 3.0, 0.1);
}

TEST(Taxonomy, SeverityRule) {
    EXPECT_EQ(severityOf(RecoveryAction::ServicePhone), Severity::High);
    EXPECT_EQ(severityOf(RecoveryAction::Reboot), Severity::Medium);
    EXPECT_EQ(severityOf(RecoveryAction::RemoveBattery), Severity::Medium);
    EXPECT_EQ(severityOf(RecoveryAction::RepeatAction), Severity::Low);
    EXPECT_EQ(severityOf(RecoveryAction::Wait), Severity::Low);
    EXPECT_EQ(severityOf(RecoveryAction::Unreported), Severity::Unknown);
}

TEST(Taxonomy, FreezeHasNoRepeatRecoveryInPaper) {
    for (const auto& cell : paperTable1()) {
        if (cell.type == FailureType::Freeze &&
            cell.recovery == RecoveryAction::RepeatAction) {
            EXPECT_DOUBLE_EQ(cell.percent, 0.0);
        }
        if (cell.type == FailureType::SelfShutdown &&
            cell.recovery == RecoveryAction::Reboot) {
            EXPECT_DOUBLE_EQ(cell.percent, 0.0);
        }
    }
}

// -- Generator -----------------------------------------------------------------

TEST(Generator, DeterministicForSeed) {
    const CorpusConfig config;
    const auto a = generateCorpus(config, 7);
    const auto b = generateCorpus(config, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].text, b[i].text);
    }
    const auto c = generateCorpus(config, 8);
    EXPECT_NE(a.front().text + a.back().text, c.front().text + c.back().text);
}

TEST(Generator, CorpusShape) {
    CorpusConfig config;
    config.failureReports = 400;
    const auto corpus = generateCorpus(config, 1);
    EXPECT_EQ(corpus.size(), 1000u);  // 1.5 noise posts per failure report
    std::size_t failures = 0;
    for (const auto& report : corpus) {
        EXPECT_FALSE(report.text.empty());
        EXPECT_FALSE(report.model.empty());
        EXPECT_GE(report.year, 2003);
        EXPECT_LE(report.year, 2006);
        if (report.label.isFailureReport) ++failures;
    }
    EXPECT_EQ(failures, 400u);
}

TEST(Generator, MarginalsApproximatePaper) {
    CorpusConfig config;
    config.failureReports = 5'000;  // large sample to test the sampler
    const auto corpus = generateCorpus(config, 2);
    std::array<std::size_t, kFailureTypeCount> typeCounts{};
    std::size_t smart = 0;
    for (const auto& report : corpus) {
        if (!report.label.isFailureReport) continue;
        ++typeCounts[static_cast<std::size_t>(report.label.type)];
        if (report.smartPhone) ++smart;
    }
    const auto pct = [&](FailureType t) {
        return 100.0 * static_cast<double>(typeCounts[static_cast<std::size_t>(t)]) /
               5'000.0;
    };
    EXPECT_NEAR(pct(FailureType::OutputFailure), 36.3, 2.5);
    EXPECT_NEAR(pct(FailureType::Freeze), 25.3, 2.5);
    EXPECT_NEAR(pct(FailureType::UnstableBehavior), 18.5, 2.0);
    EXPECT_NEAR(pct(FailureType::SelfShutdown), 17.0, 2.0);
    EXPECT_NEAR(pct(FailureType::InputFailure), 3.0, 1.0);
    EXPECT_NEAR(100.0 * static_cast<double>(smart) / 5'000.0, 22.3, 2.0);
}

// -- Classifier ------------------------------------------------------------------

TEST(Classifier, RecognizesFailureTypes) {
    // Check isFailureReport too: `type` defaults to Freeze, so a filtered
    // report would satisfy a naive type check.
    EXPECT_TRUE(classifyReport("my phone froze completely").isFailureReport);
    EXPECT_EQ(classifyReport("my phone froze completely").type, FailureType::Freeze);
    EXPECT_EQ(classifyReport("the handset turns itself off at random").type,
              FailureType::SelfShutdown);
    EXPECT_EQ(classifyReport("backlight flashing and menus opening by themselves").type,
              FailureType::UnstableBehavior);
    EXPECT_EQ(classifyReport("the soft keys do not work").type,
              FailureType::InputFailure);
    EXPECT_EQ(classifyReport("ring volume is wrong after every call ends").type,
              FailureType::OutputFailure);
}

TEST(Classifier, RecognizesRecoveries) {
    EXPECT_EQ(classifyReport("it froze; I have to take the battery out").recovery,
              RecoveryAction::RemoveBattery);
    EXPECT_EQ(classifyReport("it froze; a quick reset fixes it").recovery,
              RecoveryAction::Reboot);
    EXPECT_EQ(classifyReport("it froze; after a few minutes it came back").recovery,
              RecoveryAction::Wait);
    EXPECT_EQ(classifyReport("wrong date shown; trying again worked fine").recovery,
              RecoveryAction::RepeatAction);
    EXPECT_EQ(
        classifyReport("it froze; took it to the service center for new firmware")
            .recovery,
        RecoveryAction::ServicePhone);
    EXPECT_EQ(classifyReport("my phone froze today").recovery,
              RecoveryAction::Unreported);
}

TEST(Classifier, RecognizesActivities) {
    EXPECT_EQ(classifyReport("it froze during a long phone call").activity,
              ReportedActivity::VoiceCall);
    EXPECT_EQ(classifyReport("it froze while sending an sms").activity,
              ReportedActivity::TextMessage);
    EXPECT_EQ(classifyReport("it froze while using bluetooth").activity,
              ReportedActivity::Bluetooth);
    EXPECT_EQ(classifyReport("it froze when taking a photo").activity,
              ReportedActivity::Images);
}

TEST(Classifier, FiltersNonFailureChatter) {
    EXPECT_FALSE(classifyReport("what is the best ringtone site for my Nokia?")
                     .isFailureReport);
    EXPECT_FALSE(classifyReport("thinking of selling my phone").isFailureReport);
    EXPECT_TRUE(classifyReport("my phone keeps freezing").isFailureReport);
}

TEST(Classifier, SeverityFollowsRecovery) {
    const auto c = classifyReport("it froze; only pulling the battery helps");
    EXPECT_EQ(c.severity(), Severity::Medium);
}

// -- Study -----------------------------------------------------------------------

TEST(Study, ReproducesTable1Shape) {
    CorpusConfig config;
    // A larger corpus than the paper's 533: at N=533 the largest-cell
    // ordering (output/unreported vs output/reboot, 13.7% vs 8.8%) can
    // invert by sampling noise alone.
    config.failureReports = 3'000;
    const auto result = runForumStudy(config, 533);
    EXPECT_GT(result.classifiedFailures, 2'700u);

    // Type marginals land near the paper's (classification noise allowed).
    EXPECT_NEAR(result.typePercent(FailureType::OutputFailure), 36.3, 6.0);
    EXPECT_NEAR(result.typePercent(FailureType::Freeze), 25.3, 6.0);
    EXPECT_NEAR(result.typePercent(FailureType::InputFailure), 3.0, 2.5);

    // Largest single cell in the paper: output failures with unreported
    // recovery (13.73%).
    double maxCell = 0.0;
    FailureType maxType{};
    RecoveryAction maxRecovery{};
    for (std::size_t t = 0; t < kFailureTypeCount; ++t) {
        for (std::size_t r = 0; r < kRecoveryActionCount; ++r) {
            const auto cell = result.percent(static_cast<FailureType>(t),
                                             static_cast<RecoveryAction>(r));
            if (cell > maxCell) {
                maxCell = cell;
                maxType = static_cast<FailureType>(t);
                maxRecovery = static_cast<RecoveryAction>(r);
            }
        }
    }
    EXPECT_EQ(maxType, FailureType::OutputFailure);
    EXPECT_EQ(maxRecovery, RecoveryAction::Unreported);
}

TEST(Study, ClassifierQualityReported) {
    const auto result = runForumStudy(CorpusConfig{}, 99);
    EXPECT_GT(result.filterPrecision, 0.9);
    EXPECT_GT(result.filterRecall, 0.9);
    EXPECT_GT(result.typeAccuracy, 0.85);
    EXPECT_GT(result.recoveryAccuracy, 0.85);
}

TEST(Study, SeverityDistributionPlausible) {
    const auto result = runForumStudy(CorpusConfig{}, 5);
    const double total = result.severityPercent(Severity::Low) +
                         result.severityPercent(Severity::Medium) +
                         result.severityPercent(Severity::High) +
                         result.severityPercent(Severity::Unknown);
    EXPECT_NEAR(total, 100.0, 0.1);
    // Medium (reboot/battery) and unknown (unreported) dominate, as in
    // Table 1.
    EXPECT_GT(result.severityPercent(Severity::Unknown), 25.0);
}

TEST(Study, ActivityCorrelationNearPaper) {
    CorpusConfig config;
    config.failureReports = 4'000;  // tighten the estimate
    const auto result = runForumStudy(config, 3);
    EXPECT_NEAR(result.activityPercent(ReportedActivity::VoiceCall), 13.0, 2.5);
    EXPECT_NEAR(result.activityPercent(ReportedActivity::TextMessage), 5.4, 2.0);
    EXPECT_NEAR(result.activityPercent(ReportedActivity::Bluetooth), 3.6, 1.5);
    EXPECT_NEAR(result.activityPercent(ReportedActivity::Images), 2.4, 1.5);
}

}  // namespace
}  // namespace symfail::forum
