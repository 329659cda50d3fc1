// End-to-end integration: device + logger + injector + analysis on small
// campaigns, including determinism and ground-truth recovery.
#include <gtest/gtest.h>

#include "core/render.hpp"
#include "core/study.hpp"
#include "faults/injector.hpp"
#include "fleet/fleet.hpp"
#include "logger/logger.hpp"
#include "phone/device.hpp"

namespace symfail {
namespace {

/// A small-but-real campaign: 4 phones, 40 days.
fleet::FleetConfig smallFleet() {
    fleet::FleetConfig config;
    config.phoneCount = 4;
    config.campaign = sim::Duration::days(40);
    config.enrollmentWindow = sim::Duration::days(10);
    config.seed = 99;
    // Scale rates up so the short campaign still sees plenty of events.
    config.freezesPerHour *= 10.0;
    config.selfShutdownsPerHour *= 10.0;
    config.panicsPerHour *= 10.0;
    return config;
}

TEST(Integration, SingleDeviceBootsAndLogs) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "solo";
    config.seed = 5;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(2));

    EXPECT_GE(device.bootCount(), 1u);
    EXPECT_GT(loggerApp.heartbeatsWritten(), 100u);
    EXPECT_GE(loggerApp.bootsLogged(), 1u);
    // The consolidated log must parse cleanly.
    std::size_t malformed = 0;
    const auto entries = logger::parseLogFile(loggerApp.logFileContent(), &malformed);
    EXPECT_EQ(malformed, 0u);
    ASSERT_GE(entries.size(), 2u);
    EXPECT_EQ(entries.front().type, logger::LogFileEntry::Type::Meta);
    EXPECT_EQ(entries.front().meta.symbianVersion, "8.0");
    EXPECT_EQ(entries[1].type, logger::LogFileEntry::Type::Boot);
}

TEST(Integration, InjectedFreezeIsDetected) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "freezer";
    config.seed = 6;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(10));

    // Freeze the phone mid-day; the user model pulls the battery later.
    device.freeze("test hang");
    ASSERT_EQ(device.state(), phone::PhoneDevice::PowerState::Frozen);
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(30));
    EXPECT_GE(device.bootCount(), 2u);

    const auto dataset = analysis::LogDataset::build(
        {analysis::PhoneLog{"freezer", loggerApp.logFileContent()}});
    ASSERT_EQ(dataset.freezes().size(), 1u);
    // Freeze time reconstructed within one heartbeat period.
    const double err = (sim::TimePoint::origin() + sim::Duration::hours(10) -
                        dataset.freezes()[0].lastAliveAt)
                           .asSecondsF();
    EXPECT_GE(err, 0.0);
    EXPECT_LE(err, loggerApp.config().heartbeatPeriod.asSecondsF() + 1.0);
}

TEST(Integration, SelfRebootProducesShortShutdown) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "rebooter";
    config.seed = 7;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(9));
    device.selfReboot("test");
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(12));

    const auto dataset = analysis::LogDataset::build(
        {analysis::PhoneLog{"rebooter", loggerApp.logFileContent()}});
    ASSERT_GE(dataset.shutdowns().size(), 1u);
    const analysis::ShutdownDiscriminator discriminator;
    const auto classified = discriminator.classify(dataset);
    ASSERT_EQ(classified.selfShutdowns.size(), 1u);
    EXPECT_LT(classified.selfShutdowns[0].offDuration().asSecondsF(), 360.0);
}

TEST(Integration, PanicPathReachesLogFile) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "panicky";
    config.seed = 8;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));

    faults::AsyncBag bag;
    const auto victim =
        device.kernel().createProcess("Victim", symbos::ProcessKind::UserApp);
    faults::driveMechanism(device, victim, symbos::kUserDesOverflow, bag);

    const auto dataset = analysis::LogDataset::build(
        {analysis::PhoneLog{"panicky", loggerApp.logFileContent()}});
    ASSERT_EQ(dataset.panics().size(), 1u);
    EXPECT_EQ(dataset.panics()[0].record.panic, symbos::kUserDesOverflow);
    EXPECT_FALSE(device.kernel().alive(victim));
}

TEST(Integration, SmallCampaignEndToEnd) {
    core::StudyConfig config;
    config.fleetConfig = smallFleet();
    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();

    // The campaign produced real data end to end.
    EXPECT_GT(results.fleet.totalBoots, 40u);
    EXPECT_GT(results.dataset.panics().size(), 20u);
    EXPECT_GT(results.dataset.freezes().size(), 10u);
    EXPECT_GT(results.classification.selfShutdowns.size(), 10u);
    EXPECT_GT(results.mtbf.observedPhoneHours, 1'000.0);

    // Methodology quality against ground truth.
    EXPECT_GT(results.evaluation.freezeDetection.recall(), 0.8);
    EXPECT_GT(results.evaluation.freezeDetection.precision(), 0.8);
    EXPECT_GT(results.evaluation.selfShutdownDetection.recall(), 0.7);
    EXPECT_GT(results.evaluation.panicCaptureRate(), 0.85);

    // Renderers produce non-empty output for every artifact.
    EXPECT_FALSE(core::renderFig2(results).empty());
    EXPECT_FALSE(core::renderTable2(results).empty());
    EXPECT_FALSE(core::renderFig3(results).empty());
    EXPECT_FALSE(core::renderFig5(results).empty());
    EXPECT_FALSE(core::renderTable3(results).empty());
    EXPECT_FALSE(core::renderFig6(results).empty());
    EXPECT_FALSE(core::renderTable4(results).empty());
    EXPECT_FALSE(core::renderHeadline(results).empty());
    EXPECT_FALSE(core::renderEvaluation(results).empty());
}

TEST(Integration, RebootDurationHistogramIsBimodal) {
    // Figure 2's two modes must emerge from the mechanisms: a short-mode
    // peak from self-reboots (<360 s) and a long mode from night
    // shutdowns (tens of thousands of seconds).
    core::StudyConfig config;
    config.fleetConfig = smallFleet();
    config.fleetConfig.seed = 1234;
    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();

    const auto zoom = analysis::ShutdownDiscriminator::rebootDurationHistogram(
        results.dataset, 500.0, 25);
    EXPECT_GT(zoom.modeMidpoint(), 30.0);
    EXPECT_LT(zoom.modeMidpoint(), 250.0);

    const auto full = analysis::ShutdownDiscriminator::rebootDurationHistogram(
        results.dataset, 40'000.0, 40);
    // Mass exists both below 1,000 s and in the night band (20k-40k s).
    std::uint64_t shortMass = full.binValue(0);
    std::uint64_t nightMass = 0;
    for (std::size_t i = 20; i < full.binCount(); ++i) nightMass += full.binValue(i);
    EXPECT_GT(shortMass, 10u);
    EXPECT_GT(nightMass, 10u);
}

/// Counts completed flash writes (appends and replacements).
struct WriteCounter final : phone::FlashWriteObserver {
    std::uint64_t writes{0};
    void onAppend(std::string_view, std::uint64_t, std::uint32_t,
                  std::string_view) override {
        ++writes;
    }
};

TEST(Integration, FrozenPhoneGoesSilent) {
    // During a freeze nothing is written to flash.
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "silent";
    config.seed = 9;
    phone::PhoneDevice device{simulator, config};
    logger::FailureLogger loggerApp{device};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(9));
    device.freeze("test");
    WriteCounter counter;
    device.flash().setWriteObserver(&counter);
    // Run forward but stop before the user model's battery pull recovers
    // the phone (notice delays are >= minutes).
    simulator.runUntil(simulator.now() + sim::Duration::seconds(30));
    EXPECT_EQ(counter.writes, 0u);
    device.flash().setWriteObserver(nullptr);
}

TEST(Integration, CampaignIsDeterministic) {
    fleet::FleetConfig config = smallFleet();
    config.phoneCount = 2;
    config.campaign = sim::Duration::days(15);
    const auto a = fleet::runCampaign(config);
    const auto b = fleet::runCampaign(config);
    ASSERT_EQ(a.logs.size(), b.logs.size());
    for (std::size_t i = 0; i < a.logs.size(); ++i) {
        EXPECT_EQ(a.logs[i].logFileContent, b.logs[i].logFileContent);
    }
    EXPECT_EQ(a.panicsInjected, b.panicsInjected);
    EXPECT_EQ(a.simulatorEvents, b.simulatorEvents);
}

}  // namespace
}  // namespace symfail
