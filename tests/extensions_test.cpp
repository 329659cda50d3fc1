// Tests for the D_EXC baseline and the output-failure/user-report
// extension.
#include <gtest/gtest.h>

#include "faults/injector.hpp"
#include "fleet/fleet.hpp"
#include "logger/dexc.hpp"
#include "logger/logger.hpp"
#include "logger/user_reports.hpp"
#include "phone/device.hpp"

namespace symfail {
namespace {

phone::PhoneDevice::Config quietConfig(const char* name, std::uint64_t seed) {
    phone::PhoneDevice::Config config;
    config.name = name;
    config.seed = seed;
    config.profile.callsPerDay = 0.0;
    config.profile.smsPerDay = 0.0;
    config.profile.cameraPerDay = 0.0;
    config.profile.bluetoothPerDay = 0.0;
    config.profile.webPerDay = 0.0;
    config.profile.appSessionsPerDay = 0.0;
    config.profile.nightOffProb = 0.0;
    config.profile.daytimeOffPerDay = 0.0;
    config.profile.quickCyclesPerDay = 0.0;
    config.profile.loggerTogglesPerMonth = 0.0;
    return config;
}

// -- D_EXC baseline ---------------------------------------------------------------

TEST(DExc, CapturesPanicsOnly) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("dexc", 61)};
    logger::DExcTool dexc{device};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::minutes(10));

    const auto victim =
        device.kernel().createProcess("App", symbos::ProcessKind::UserApp);
    device.kernel().runInProcess(victim, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kUserDesOverflow, "x");
    });
    const auto entries = logger::DExcTool::parse(dexc.logContent());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0], symbos::kUserDesOverflow);
    // No heartbeat/boot machinery: a freeze leaves no trace at all.
    device.freeze("hang");
    device.abruptPowerOff();
    device.powerOn();
    EXPECT_EQ(logger::DExcTool::parse(dexc.logContent()).size(), 1u);
}

TEST(DExc, ParseSkipsGarbage) {
    const auto entries =
        logger::DExcTool::parse("DEXC|100|KERN-EXEC|3\nJUNK\nDEXC|bad|USER|11\n"
                                "DEXC|200|NOCAT|1\nDEXC|300|USER|11\n");
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0], symbos::kKernExecAccessViolation);
    EXPECT_EQ(entries[1], symbos::kUserDesOverflow);
}

TEST(DExc, LogSurvivesReboot) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("dexc2", 62)};
    logger::DExcTool dexc{device};
    device.powerOn();
    const auto victim =
        device.kernel().createProcess("App", symbos::ProcessKind::UserApp);
    device.kernel().runInProcess(victim, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kKernExecBadHandle, "x");
    });
    device.requestShutdown(phone::ShutdownKind::UserOff);
    device.powerOn();
    EXPECT_EQ(logger::DExcTool::parse(dexc.logContent()).size(), 1u);
}

// -- Output failures & user reports ---------------------------------------------------

TEST(OutputFailures, RecordedInGroundTruth) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("of", 63)};
    device.powerOn();
    device.outputFailureOccurred("wrong volume");
    device.outputFailureOccurred("wrong date");
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::OutputFailureInjected),
              2u);
}

TEST(OutputFailures, IgnoredWhileOff) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("of2", 64)};
    device.outputFailureOccurred("nobody home");
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::OutputFailureInjected),
              0u);
}

TEST(UserReports, AlwaysReportingCapturesAll) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("ur", 65)};
    logger::FailureLogger loggerApp{device};
    logger::UserReportConfig config;
    config.reportProbability = 1.0;
    logger::UserReportChannel channel{device, config, 65};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));
    for (int i = 0; i < 10; ++i) {
        device.outputFailureOccurred("symptom " + std::to_string(i));
        simulator.runUntil(simulator.now() + sim::Duration::hours(1));
    }
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::OutputFailureInjected),
              10u);
    EXPECT_EQ(channel.reportsFiled(), 10u);

    const auto dataset = analysis::LogDataset::build(
        {analysis::PhoneLog{"ur", loggerApp.logFileContent()}});
    ASSERT_EQ(dataset.userReports().size(), 10u);
    EXPECT_EQ(dataset.userReports()[0].record.symptom, "symptom 0");
}

TEST(UserReports, NeverReportingCapturesNone) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("ur0", 66)};
    logger::FailureLogger loggerApp{device};
    logger::UserReportConfig config;
    config.reportProbability = 0.0;
    logger::UserReportChannel channel{device, config, 66};
    device.powerOn();
    for (int i = 0; i < 10; ++i) device.outputFailureOccurred("s");
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(1));
    EXPECT_EQ(device.groundTruth().countOf(phone::TruthKind::OutputFailureInjected),
              10u);
    EXPECT_EQ(channel.reportsFiled(), 0u);
}

TEST(UserReports, RebootBeforeDelayLosesReport) {
    sim::Simulator simulator;
    phone::PhoneDevice device{simulator, quietConfig("ur1", 67)};
    logger::FailureLogger loggerApp{device};
    logger::UserReportConfig config;
    config.reportProbability = 1.0;
    logger::UserReportChannel channel{device, config, 67};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));
    device.outputFailureOccurred("soon forgotten");
    // The phone reboots before the user gets around to it: the report
    // delay is always positive.
    device.requestShutdown(phone::ShutdownKind::UserOff);
    device.powerOn();
    simulator.runUntil(simulator.now() + sim::Duration::hours(2));
    EXPECT_EQ(channel.reportsFiled(), 0u);
}

TEST(UserReports, RecordRoundTripStripsDelimiters) {
    logger::UserReportRecord record;
    record.time = sim::TimePoint::fromMicros(123);
    record.symptom = "weird|sym\nptom";
    const auto entries = logger::parseLogFile(logger::serialize(record) + "\n");
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_EQ(entries[0].type, logger::LogFileEntry::Type::UserReport);
    EXPECT_EQ(entries[0].userReport.symptom, "weirdsymptom");
}

TEST(UserReports, FleetWiresChannelAndEvaluatorScoresIt) {
    fleet::FleetConfig config;
    config.phoneCount = 3;
    config.campaign = sim::Duration::days(90);  // ~40 output failures
    config.enrollmentWindow = sim::Duration::days(5);
    config.seed = 68;
    config.userReportConfig.reportProbability = 0.5;
    const auto result = fleet::runCampaign(config);
    EXPECT_GT(result.outputFailuresInjected, 20u);
    EXPECT_GT(result.userReportsFiled, 5u);
    EXPECT_LT(result.userReportsFiled, result.outputFailuresInjected);

    const auto dataset = analysis::LogDataset::build(result.logs);
    const auto classification = analysis::ShutdownDiscriminator{}.classify(dataset);
    const auto evaluation =
        analysis::evaluate(dataset, classification, result.truthMap());
    EXPECT_EQ(evaluation.outputFailuresInjected, result.outputFailuresInjected);
    EXPECT_EQ(evaluation.userReportsLogged, result.userReportsFiled);
    EXPECT_NEAR(evaluation.outputFailureCaptureRate(), 0.5, 0.2);
}

}  // namespace
}  // namespace symfail
