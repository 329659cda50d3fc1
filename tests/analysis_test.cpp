// Tests for the analysis pipeline on hand-built logs: dataset parsing,
// shutdown discrimination, MTBF, bursts, coalescence, correlations, the
// ground-truth evaluator and the table renderer.
#include <gtest/gtest.h>

#include "analysis/apps_correlation.hpp"
#include "analysis/coalescence.hpp"
#include "analysis/dataset.hpp"
#include "analysis/discriminator.hpp"
#include "analysis/evaluator.hpp"
#include "analysis/mtbf.hpp"
#include "analysis/panic_stats.hpp"
#include "analysis/tables.hpp"
#include "analysis/version_stats.hpp"

namespace symfail::analysis {
namespace {

using logger::BootRecord;
using logger::PanicRecord;
using logger::PriorShutdown;

sim::TimePoint at(std::int64_t seconds) {
    return sim::TimePoint::origin() + sim::Duration::seconds(seconds);
}

/// Builds a serialized Log File from records.
class LogBuilder {
public:
    LogBuilder& boot(std::int64_t t, PriorShutdown prior, std::int64_t lastBeatT) {
        BootRecord record;
        record.time = at(t);
        record.prior = prior;
        record.lastBeatAt = at(lastBeatT);
        content_ += logger::serialize(record) + "\n";
        return *this;
    }
    LogBuilder& panic(std::int64_t t, symbos::PanicId id,
                      std::vector<std::string> apps = {},
                      logger::ActivityContext activity =
                          logger::ActivityContext::Unspecified) {
        PanicRecord record;
        record.time = at(t);
        record.panic = id;
        record.runningApps = std::move(apps);
        record.activity = activity;
        record.batteryPercent = 50;
        content_ += logger::serialize(record) + "\n";
        return *this;
    }
    [[nodiscard]] PhoneLog build(std::string name) const {
        return PhoneLog{std::move(name), content_};
    }

private:
    std::string content_;
};

// -- Dataset --------------------------------------------------------------------

TEST(Dataset, ClassifiesBootRecords) {
    const auto log = LogBuilder{}
                         .boot(0, PriorShutdown::None, 0)
                         .boot(1'000, PriorShutdown::Freeze, 900)
                         .boot(2'000, PriorShutdown::Reboot, 1'900)
                         .boot(3'000, PriorShutdown::LowBattery, 2'900)
                         .boot(4'000, PriorShutdown::ManualOff, 3'900)
                         .build("p");
    const auto ds = LogDataset::build({log});
    EXPECT_EQ(ds.bootCount(), 5u);
    EXPECT_EQ(ds.freezes().size(), 1u);
    EXPECT_EQ(ds.shutdowns().size(), 2u);
    ASSERT_EQ(ds.spans().size(), 1u);
    EXPECT_NEAR(ds.spans()[0].span().asSecondsF(), 4'000.0, 1.0);
}

TEST(Dataset, OffDurationComputed) {
    const auto log =
        LogBuilder{}.boot(1'000, PriorShutdown::Reboot, 900).build("p");
    const auto ds = LogDataset::build({log});
    ASSERT_EQ(ds.shutdowns().size(), 1u);
    EXPECT_NEAR(ds.shutdowns()[0].offDuration().asSecondsF(), 100.0, 1e-6);
}

TEST(Dataset, MalformedLinesCountedNotFatal) {
    PhoneLog log{"p", "BOOT|1|NONE|0\nJUNK\nPANIC|bad\n"};
    const auto ds = LogDataset::build({log});
    EXPECT_EQ(ds.bootCount(), 1u);
    EXPECT_TRUE(ds.panics().empty());
}

TEST(Dataset, MultiplePhonesKeptSeparate) {
    const auto a = LogBuilder{}.boot(0, PriorShutdown::None, 0).build("a");
    const auto b = LogBuilder{}
                       .boot(0, PriorShutdown::None, 0)
                       .boot(500, PriorShutdown::Freeze, 450)
                       .build("b");
    const auto ds = LogDataset::build({a, b});
    ASSERT_EQ(ds.freezes().size(), 1u);
    EXPECT_EQ(ds.freezes()[0].phoneName, "b");
    EXPECT_EQ(ds.spans().size(), 2u);
}

// -- Discriminator ------------------------------------------------------------------

TEST(Discriminator, SplitsAtThreshold) {
    const auto log = LogBuilder{}
                         .boot(0, PriorShutdown::None, 0)
                         .boot(1'080, PriorShutdown::Reboot, 1'000)    // 80 s: self
                         .boot(2'359, PriorShutdown::Reboot, 2'000)    // 359 s: self
                         .boot(3'361, PriorShutdown::Reboot, 3'000)    // 361 s: user
                         .boot(40'000, PriorShutdown::Reboot, 10'000)  // night
                         .boot(50'000, PriorShutdown::LowBattery, 49'000)
                         .build("p");
    const auto ds = LogDataset::build({log});
    const ShutdownDiscriminator discriminator;
    const auto result = discriminator.classify(ds);
    EXPECT_EQ(result.selfShutdowns.size(), 2u);
    EXPECT_EQ(result.userShutdowns.size(), 2u);
    EXPECT_EQ(result.lowBattery.size(), 1u);
    EXPECT_EQ(result.totalRebootEvents(), 4u);
    EXPECT_DOUBLE_EQ(result.selfFraction(), 0.5);
}

TEST(Discriminator, CustomThreshold) {
    const auto log = LogBuilder{}
                         .boot(1'100, PriorShutdown::Reboot, 1'000)  // 100 s
                         .build("p");
    const auto ds = LogDataset::build({log});
    EXPECT_EQ(ShutdownDiscriminator{50.0}.classify(ds).selfShutdowns.size(), 0u);
    EXPECT_EQ(ShutdownDiscriminator{150.0}.classify(ds).selfShutdowns.size(), 1u);
}

TEST(Discriminator, HistogramCoversRange) {
    const auto log = LogBuilder{}
                         .boot(1'080, PriorShutdown::Reboot, 1'000)
                         .boot(40'000, PriorShutdown::Reboot, 9'000)
                         .build("p");
    const auto ds = LogDataset::build({log});
    const auto hist = ShutdownDiscriminator::rebootDurationHistogram(ds, 40'000.0, 40);
    EXPECT_EQ(hist.total(), 2u);
    EXPECT_EQ(hist.binValue(0), 1u);   // the 80 s event
    EXPECT_EQ(hist.binValue(31), 1u);  // the 31'000 s event
}

// -- MTBF ------------------------------------------------------------------------------

TEST(Mtbf, ComputesHoursPerEvent) {
    // 100 hours of observation, 2 freezes, 1 self-shutdown.
    LogBuilder builder;
    builder.boot(0, PriorShutdown::None, 0);
    builder.boot(50'000, PriorShutdown::Freeze, 49'000);
    builder.boot(100'000, PriorShutdown::Freeze, 99'000);
    builder.boot(200'000, PriorShutdown::Reboot, 199'920);  // 80 s: self
    builder.boot(360'000, PriorShutdown::None, 0);
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto report = estimateMtbf(ds, classification);
    EXPECT_EQ(report.freezeCount, 2u);
    EXPECT_EQ(report.selfShutdownCount, 1u);
    EXPECT_NEAR(report.observedPhoneHours, 100.0, 0.1);
    EXPECT_NEAR(report.mtbfFreezeHours, 50.0, 0.1);
    EXPECT_NEAR(report.mtbfSelfShutdownHours, 100.0, 0.1);
    EXPECT_NEAR(report.mtbfAnyFailureHours, 33.3, 0.1);
    EXPECT_NEAR(report.failureEveryDays(), 33.3 / 24.0, 0.01);
}

TEST(Mtbf, PerPhoneBreakdown) {
    const auto a = LogBuilder{}
                       .boot(0, PriorShutdown::None, 0)
                       .boot(3'600, PriorShutdown::Freeze, 3'500)
                       .build("a");
    const auto b = LogBuilder{}.boot(0, PriorShutdown::None, 0).build("b");
    const auto ds = LogDataset::build({a, b});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto rows = perPhoneMtbf(ds, classification);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].phoneName, "a");
    EXPECT_EQ(rows[0].freezes, 1u);
    EXPECT_EQ(rows[1].freezes, 0u);
}

TEST(Mtbf, EmptyDatasetIsZero) {
    const auto ds = LogDataset::build({});
    const auto report = estimateMtbf(ds, ShutdownClassification{});
    EXPECT_EQ(report.mtbfFreezeHours, 0.0);
    EXPECT_EQ(report.failureEveryDays(), 0.0);
}

// -- Panic table & bursts -----------------------------------------------------------------

TEST(PanicTable, CountsAndPaperShares) {
    LogBuilder builder;
    for (int i = 0; i < 6; ++i) {
        builder.panic(i * 10'000, symbos::kKernExecAccessViolation);
    }
    builder.panic(70'000, symbos::kUserDesOverflow);
    const auto ds = LogDataset::build({builder.build("p")});
    const auto rows = panicTable(ds);
    ASSERT_EQ(rows.size(), 20u);  // one per paper row
    for (const auto& row : rows) {
        if (row.panic == symbos::kKernExecAccessViolation) {
            EXPECT_EQ(row.count, 6u);
            EXPECT_NEAR(row.percent, 600.0 / 7.0, 0.1);
            EXPECT_NEAR(row.paperPercent, 56.31, 0.01);
        }
        if (row.panic == symbos::kPhoneAppInternal) {
            EXPECT_EQ(row.count, 0u);
        }
    }
    EXPECT_NEAR(categoryShare(ds, symbos::PanicCategory::KernExec), 600.0 / 7.0, 0.1);
}

TEST(Bursts, GroupsByGap) {
    LogBuilder builder;
    // Burst of 3 (gaps 10 s), isolated, burst of 2.
    builder.panic(1'000, symbos::kKernExecAccessViolation);
    builder.panic(1'010, symbos::kUserDesOverflow);
    builder.panic(1'020, symbos::kCBaseNoTrapHandler);
    builder.panic(10'000, symbos::kKernExecAccessViolation);
    builder.panic(20'000, symbos::kKernExecAccessViolation);
    builder.panic(20'100, symbos::kMsgsClientWriteFailed);
    const auto ds = LogDataset::build({builder.build("p")});
    const auto lengths = burstLengths(ds, 300.0);
    EXPECT_EQ(lengths.count(1), 1u);
    EXPECT_EQ(lengths.count(2), 1u);
    EXPECT_EQ(lengths.count(3), 1u);
    EXPECT_NEAR(burstFraction(lengths), 2.0 / 3.0, 1e-9);
}

TEST(Bursts, PhonesDoNotMix) {
    const auto a = LogBuilder{}.panic(1'000, symbos::kKernExecAccessViolation).build("a");
    const auto b = LogBuilder{}.panic(1'010, symbos::kKernExecAccessViolation).build("b");
    const auto ds = LogDataset::build({a, b});
    const auto lengths = burstLengths(ds, 300.0);
    EXPECT_EQ(lengths.count(1), 2u);  // two isolated panics, not one burst
    EXPECT_EQ(lengths.count(2), 0u);
}

// -- Coalescence ------------------------------------------------------------------------------

TEST(Coalescence, RelatesWithinWindow) {
    LogBuilder builder;
    builder.panic(1'000, symbos::kKernExecAccessViolation);  // freeze at 1'060
    builder.boot(1'200, PriorShutdown::Freeze, 1'060);
    builder.panic(50'000, symbos::kUserDesOverflow);  // isolated
    builder.panic(80'000, symbos::kMsgsClientWriteFailed);  // self-shutdown at 80'010
    builder.boot(80'100, PriorShutdown::Reboot, 80'010);
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto result = coalesce(ds, classification, 300.0);
    ASSERT_EQ(result.panics.size(), 3u);
    EXPECT_EQ(result.relatedCount, 2u);
    EXPECT_NEAR(result.relatedFraction(), 2.0 / 3.0, 1e-9);
    EXPECT_EQ(result.hlTotal, 2u);
    EXPECT_EQ(result.hlWithPanic, 2u);

    // Relations are categorized correctly.
    for (const auto& related : result.panics) {
        if (related.panic.record.panic == symbos::kKernExecAccessViolation) {
            EXPECT_EQ(related.relation, PanicRelation::Freeze);
        } else if (related.panic.record.panic == symbos::kMsgsClientWriteFailed) {
            EXPECT_EQ(related.relation, PanicRelation::SelfShutdown);
        } else {
            EXPECT_EQ(related.relation, PanicRelation::Isolated);
        }
    }
}

TEST(Coalescence, WindowBoundaryInclusive) {
    LogBuilder builder;
    builder.panic(1'000, symbos::kKernExecAccessViolation);
    builder.boot(2'000, PriorShutdown::Freeze, 1'300);  // gap exactly 300 s
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    EXPECT_EQ(coalesce(ds, classification, 300.0).relatedCount, 1u);
    EXPECT_EQ(coalesce(ds, classification, 299.0).relatedCount, 0u);
}

TEST(Coalescence, SweepIsMonotone) {
    LogBuilder builder;
    for (int i = 0; i < 20; ++i) {
        builder.panic(i * 5'000, symbos::kKernExecAccessViolation);
        if (i % 3 == 0) {
            builder.boot(i * 5'000 + 400, PriorShutdown::Freeze, i * 5'000 + 90);
        }
    }
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto sweep = windowSweep(ds, classification, {10, 60, 120, 600, 3'600});
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_GE(sweep[i].relatedCount, sweep[i - 1].relatedCount);
    }
}

TEST(Coalescence, ActivityCorrelationPercentages) {
    LogBuilder builder;
    builder.panic(1'000, symbos::kUserDesOverflow, {},
                  logger::ActivityContext::VoiceCall);
    builder.boot(1'100, PriorShutdown::Freeze, 1'010);
    builder.panic(9'000, symbos::kPhoneAppInternal, {},
                  logger::ActivityContext::Message);
    builder.boot(9'100, PriorShutdown::Reboot, 9'020);
    builder.panic(20'000, symbos::kKernExecAccessViolation, {},
                  logger::ActivityContext::Unspecified);
    builder.boot(20'200, PriorShutdown::Freeze, 20'010);
    // Isolated panic with activity: excluded from Table 3.
    builder.panic(90'000, symbos::kKernExecAccessViolation, {},
                  logger::ActivityContext::VoiceCall);
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto result = coalesce(ds, classification, 300.0);
    const auto corr = activityCorrelation(result);
    EXPECT_EQ(corr.totalRelated, 3u);
    EXPECT_NEAR(corr.voicePercent, 100.0 / 3.0, 0.1);
    EXPECT_NEAR(corr.messagePercent, 100.0 / 3.0, 0.1);
    EXPECT_NEAR(corr.unspecifiedPercent, 100.0 / 3.0, 0.1);
}

// -- App correlation -----------------------------------------------------------------------------

TEST(AppsCorrelation, Figure6Counts) {
    LogBuilder builder;
    builder.panic(1'000, symbos::kKernExecAccessViolation, {"Messages"});
    builder.panic(2'000, symbos::kKernExecAccessViolation, {"Messages", "Camera"});
    builder.panic(3'000, symbos::kKernExecAccessViolation, {});
    const auto ds = LogDataset::build({builder.build("p")});
    const auto counts = runningAppCounts(ds);
    EXPECT_EQ(counts.count(0), 1u);
    EXPECT_EQ(counts.count(1), 1u);
    EXPECT_EQ(counts.count(2), 1u);
}

TEST(AppsCorrelation, Table4RowsAndTotals) {
    LogBuilder builder;
    for (int i = 0; i < 8; ++i) {
        builder.panic(i * 1'000, symbos::kKernExecAccessViolation, {"Messages"});
    }
    builder.panic(20'000, symbos::kUserDesOverflow, {"Camera"});
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto result = coalesce(ds, classification, 300.0);
    const auto rows = appCorrelation(result, 0.0);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows[0].app, "Messages");
    EXPECT_NEAR(rows[0].percentOfAllPanics, 800.0 / 9.0, 0.1);

    const auto totals = appTotals(ds);
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0].app, "Messages");
    EXPECT_NEAR(totals[0].percentOfAllPanics, 800.0 / 9.0, 0.1);
}

// -- Version breakdown --------------------------------------------------------------------------

TEST(VersionStats, GroupsByMetaRecord) {
    logger::MetaRecord metaA;
    metaA.time = at(0);
    metaA.symbianVersion = "8.0";
    logger::MetaRecord metaB;
    metaB.time = at(0);
    metaB.symbianVersion = "6.1";

    auto logA = LogBuilder{}
                    .boot(10, PriorShutdown::None, 0)
                    .boot(7'200, PriorShutdown::Freeze, 7'100)
                    .build("a");
    logA.logFileContent = logger::serialize(metaA) + "\n" + logA.logFileContent;
    auto logB = LogBuilder{}
                    .boot(10, PriorShutdown::None, 0)
                    .panic(3'600, symbos::kKernExecAccessViolation)
                    .build("b");
    logB.logFileContent = logger::serialize(metaB) + "\n" + logB.logFileContent;
    auto logC = LogBuilder{}.boot(10, PriorShutdown::None, 0).build("c");  // no META

    const auto ds = LogDataset::build({logA, logB, logC});
    EXPECT_EQ(ds.versionOf("a"), "8.0");
    EXPECT_EQ(ds.versionOf("b"), "6.1");
    EXPECT_EQ(ds.versionOf("c"), "unknown");

    const auto classification = ShutdownDiscriminator{}.classify(ds);
    const auto rows = versionBreakdown(ds, classification);
    ASSERT_EQ(rows.size(), 3u);  // 6.1, 8.0, unknown (sorted)
    EXPECT_EQ(rows[0].version, "6.1");
    EXPECT_EQ(rows[0].panics, 1u);
    EXPECT_EQ(rows[1].version, "8.0");
    EXPECT_EQ(rows[1].freezes, 1u);
    EXPECT_EQ(rows[2].version, "unknown");
    EXPECT_EQ(rows[2].phones, 1u);
}

TEST(VersionStats, FailureRateComputation) {
    VersionRow row;
    row.version = "8.0";
    row.observedHours = 720.0;  // 30 days
    row.freezes = 2;
    row.selfShutdowns = 1;
    EXPECT_NEAR(row.failuresPer30Days(), 3.0, 1e-9);
    VersionRow empty;
    EXPECT_EQ(empty.failuresPer30Days(), 0.0);
}

// -- Evaluator -------------------------------------------------------------------------------------

TEST(Evaluator, ScoresDetectionAgainstTruth) {
    // Truth: freezes at 1'000 and 5'000; detection finds 1'010 and a false
    // 9'000.
    phone::GroundTruth truth;
    truth.record(at(1'000), phone::TruthKind::Freeze);
    truth.record(at(5'000), phone::TruthKind::Freeze);
    truth.record(at(7'000), phone::TruthKind::PanicInjected);

    LogBuilder builder;
    builder.boot(1'100, PriorShutdown::Freeze, 1'010);
    builder.boot(9'200, PriorShutdown::Freeze, 9'000);
    builder.panic(7'000, symbos::kKernExecAccessViolation);
    const auto ds = LogDataset::build({builder.build("p")});
    const auto classification = ShutdownDiscriminator{}.classify(ds);
    TruthMap truthMap{{"p", &truth}};
    const auto report = evaluate(ds, classification, truthMap, 60.0);
    EXPECT_EQ(report.freezeDetection.truePositives, 1u);
    EXPECT_EQ(report.freezeDetection.falsePositives, 1u);
    EXPECT_EQ(report.freezeDetection.falseNegatives, 1u);
    EXPECT_DOUBLE_EQ(report.freezeDetection.precision(), 0.5);
    EXPECT_DOUBLE_EQ(report.freezeDetection.recall(), 0.5);
    EXPECT_EQ(report.panicsInjected, 1u);
    EXPECT_EQ(report.panicsLogged, 1u);
}

TEST(Evaluator, PerfectScoreOnEmpty) {
    const DetectionScore score;
    EXPECT_DOUBLE_EQ(score.precision(), 1.0);
    EXPECT_DOUBLE_EQ(score.recall(), 1.0);
}

TEST(Evaluator, F1Computation) {
    DetectionScore score;
    score.truePositives = 8;
    score.falsePositives = 2;
    score.falseNegatives = 2;
    EXPECT_DOUBLE_EQ(score.precision(), 0.8);
    EXPECT_DOUBLE_EQ(score.recall(), 0.8);
    EXPECT_NEAR(score.f1(), 0.8, 1e-9);
}

// -- TextTable ----------------------------------------------------------------------------------------

TEST(Tables, RendersAlignedColumns) {
    TextTable table{{"name", "value"}};
    table.addRow({"alpha", "1.00"});
    table.addRow({"b", "22.50"});
    const auto out = table.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22.50"), std::string::npos);
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Tables, CsvEscapesCommas) {
    TextTable table{{"name", "value"}};
    table.addRow({"a,b", "x\"y"});
    const auto csv = table.renderCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
    EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
}

TEST(Tables, NumFormatsPrecision) {
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
}

}  // namespace
}  // namespace symfail::analysis
