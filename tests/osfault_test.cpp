// Tests for the OS-interface fault planes: bit-identity when disabled or
// idle, per-plane fault effects, OOM-kill/restart mechanics, clock
// distortion, radio-to-transport coupling, and the measurement-validity
// acceptance bounds at calibrated rates.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/study.hpp"
#include "fleet/fleet.hpp"
#include "logger/logger.hpp"
#include "logger/records.hpp"
#include "osfault/clock_plane.hpp"
#include "osfault/flash_plane.hpp"
#include "osfault/phone_planes.hpp"
#include "osfault/validity.hpp"
#include "phone/device.hpp"
#include "simkernel/simulator.hpp"

namespace symfail::osfault {
namespace {

/// A small campaign with boosted failure rates so every failure mode
/// appears within a short simulated window.
fleet::FleetConfig smallCampaign() {
    fleet::FleetConfig config;
    config.phoneCount = 3;
    config.campaign = sim::Duration::days(30);
    config.enrollmentWindow = sim::Duration::days(6);
    config.seed = 77;
    config.freezesPerHour *= 8.0;
    config.selfShutdownsPerHour *= 8.0;
    config.panicsPerHour *= 8.0;
    return config;
}

/// Byte-level identity of the phones' consolidated Log Files.
std::vector<std::string> logBytes(const fleet::FleetResult& result) {
    std::vector<std::string> bytes;
    for (const auto& log : result.logs) {
        bytes.push_back(log.phoneName + "\n" + log.logFileContent);
    }
    return bytes;
}

TEST(PlaneRegistryConfig, AttachRules) {
    PlaneConfig config;
    EXPECT_FALSE(config.anyEnabled());
    EXPECT_FALSE(config.shouldAttach());
    config.attachIdle = true;
    EXPECT_FALSE(config.anyEnabled());
    EXPECT_TRUE(config.shouldAttach());
    config.attachIdle = false;
    config.clock.skewPpm = 40.0;
    EXPECT_TRUE(config.anyEnabled());
    EXPECT_TRUE(config.shouldAttach());
}

// The acceptance criterion for "planes disabled": attaching every hook at
// zero rates must leave the campaign bit-identical — same Log Files, same
// boots, same simulator event count.
TEST(OsfaultCampaign, IdlePlanesAreBitIdentical) {
    const fleet::FleetConfig baselineConfig = smallCampaign();
    const auto baseline = fleet::runCampaign(baselineConfig);

    fleet::FleetConfig idleConfig = smallCampaign();
    idleConfig.osfault.attachIdle = true;
    const auto idle = fleet::runCampaign(idleConfig);

    EXPECT_EQ(logBytes(baseline), logBytes(idle));
    EXPECT_EQ(baseline.totalBoots, idle.totalBoots);
    EXPECT_EQ(baseline.simulatorEvents, idle.simulatorEvents);
    EXPECT_EQ(baseline.panicsInjected, idle.panicsInjected);
    EXPECT_FALSE(idle.osfault.any());
}

TEST(OsfaultCampaign, EnabledPlanesAreDeterministic) {
    fleet::FleetConfig config = smallCampaign();
    config.osfault.flash.faultsPerKHour = 40.0;
    config.osfault.memory.episodesPerKHour = 10.0;
    config.osfault.clock.skewPpm = 200.0;
    config.osfault.clock.jumpsPerKHour = 5.0;
    config.osfault.radio.faultsPerKHour = 20.0;
    const auto first = fleet::runCampaign(config);
    const auto second = fleet::runCampaign(config);
    EXPECT_EQ(logBytes(first), logBytes(second));
    EXPECT_EQ(first.osfault.flash.activations, second.osfault.flash.activations);
    EXPECT_EQ(first.osfault.memory.oomKills, second.osfault.memory.oomKills);
    EXPECT_EQ(first.osfault.clock.jumps, second.osfault.clock.jumps);
    EXPECT_EQ(first.osfault.radio.activations, second.osfault.radio.activations);
    EXPECT_TRUE(first.osfault.any());
}

// Flash faults distort the *measurement*, not the device: the injected
// workload (panics, hangs, reboots) must match the baseline exactly.
TEST(OsfaultCampaign, FlashPlaneDoesNotPerturbTheWorkload) {
    const auto baseline = fleet::runCampaign(smallCampaign());

    fleet::FleetConfig config = smallCampaign();
    config.osfault.flash.faultsPerKHour = 60.0;
    const auto faulted = fleet::runCampaign(config);

    EXPECT_EQ(baseline.panicsInjected, faulted.panicsInjected);
    EXPECT_EQ(baseline.hangsInjected, faulted.hangsInjected);
    EXPECT_EQ(baseline.spontaneousRebootsInjected,
              faulted.spontaneousRebootsInjected);
    EXPECT_EQ(baseline.totalBoots, faulted.totalBoots);
    EXPECT_GT(faulted.osfault.flash.activations, 0u);
    EXPECT_GT(faulted.osfault.flash.bitFlips + faulted.osfault.flash.tornWrites +
                  faulted.osfault.flash.droppedWrites,
              0u);
}

TEST(OsfaultCampaign, MemoryPlaneOomKillsAndRestartsTheDaemon) {
    fleet::FleetConfig config = smallCampaign();
    config.osfault.memory.episodesPerKHour = 20.0;
    const auto result = fleet::runCampaign(config);
    EXPECT_GT(result.osfault.memory.episodes, 0u);
    EXPECT_GT(result.osfault.memory.oomKills, 0u);
    EXPECT_GT(result.osfault.memory.restarts, 0u);
    // Every OOM kill is a daemon death the logger observed.
    EXPECT_GE(result.loggerDaemonDeaths, result.osfault.memory.oomKills);
}

TEST(OsfaultCampaign, RadioPlaneFeedsTheTransportOutageModel) {
    fleet::FleetConfig config = smallCampaign();
    config.campaign = sim::Duration::days(45);
    config.osfault.radio.faultsPerKHour = 30.0;
    const auto result = fleet::runCampaign(config);
    EXPECT_GT(result.osfault.radio.activations, 0u);
    EXPECT_GT(result.osfault.radio.linkDrops + result.osfault.radio.modemResets,
              0u);
    // Radio trouble reaches the pipeline through the channels' outage
    // accounting, never by deleting frames behind the transport's back.
    EXPECT_GT(result.transport.outageDrops, 0u);
}

TEST(ClockPlaneUnit, SkewDriftsReportedTime) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config deviceConfig;
    deviceConfig.name = "clock-phone";
    phone::PhoneDevice device{simulator, deviceConfig};
    ClockPlaneConfig config;
    config.skewPpm = 1000.0;  // 1 ms per second, fast
    ClockPlane plane{simulator, device, config, 1};
    plane.start();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));
    const sim::TimePoint reported = device.clockNow();
    const sim::Duration drift = reported - simulator.now();
    // 3600 s at 1000 ppm = 3.6 s of drift.
    EXPECT_NEAR(drift.asSecondsF(), 3.6, 0.01);
    EXPECT_EQ(plane.stats().monotonicityViolations, 0u);
}

TEST(ClockPlaneUnit, JumpsCanStepBackwardsButReadsClampMonotonicityCount) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config deviceConfig;
    deviceConfig.name = "jump-phone";
    phone::PhoneDevice device{simulator, deviceConfig};
    ClockPlaneConfig config;
    config.jumpsPerKHour = 2000.0;  // about two jumps per hour
    ClockPlane plane{simulator, device, config, 7};
    plane.start();
    // Sample the clock on a steady cadence while jumps land between reads.
    for (int i = 0; i < 200; ++i) {
        simulator.scheduleAt(sim::TimePoint::origin() + sim::Duration::minutes(i),
                             "test.read", [&device]() { (void)device.clockNow(); });
    }
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::minutes(200));
    const ClockPlaneStats stats = plane.stats();
    EXPECT_GT(stats.jumps, 0u);
    EXPECT_GT(stats.backwardJumps, 0u);
    // Backward steps observed through reads are counted, not hidden.
    EXPECT_GT(stats.monotonicityViolations, 0u);
}

TEST(FlashPlaneUnit, ArmedFaultsConsumeOnNextWrite) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config deviceConfig;
    deviceConfig.name = "flash-phone";
    phone::PhoneDevice device{simulator, deviceConfig};
    phone::FlashStore& flash = device.flash();
    FlashPlaneConfig config;
    config.faultsPerKHour = 500.0;  // roughly one activation per two hours
    FlashPlane plane{simulator, device, config, 3};
    plane.start();

    // Interleave writes with the arrival process: one beat-sized line per
    // simulated hour against both target files.
    for (int hour = 1; hour <= 300; ++hour) {
        simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(hour));
        flash.appendLine(logger::kBeatsFile, "BEAT t=1 kind=ALIVE");
        flash.appendLine(logger::kLogFile, "row " + std::to_string(hour));
    }
    const FlashPlaneStats stats = plane.stats();
    EXPECT_GT(stats.activations, 0u);
    EXPECT_GT(stats.tornWrites + stats.droppedWrites, 0u);
}

// Measurement-validity acceptance: with each plane at its calibrated
// rate, the pipeline's recovered failure tables must stay within the
// stated precision/recall bounds against phone/ground_truth.
TEST(OsfaultValidity, CalibratedPlanesKeepRecoveryWithinBounds) {
    core::StudyConfig config;
    auto& fleetConfig = config.fleetConfig;
    fleetConfig.phoneCount = 3;
    fleetConfig.campaign = sim::Duration::days(40);
    fleetConfig.enrollmentWindow = sim::Duration::days(8);
    fleetConfig.seed = 11;
    fleetConfig.freezesPerHour *= 8.0;
    fleetConfig.selfShutdownsPerHour *= 8.0;
    fleetConfig.panicsPerHour *= 8.0;
    // Calibrated rates: noticeable fault pressure (hundreds of
    // activations) without drowning the signal.
    fleetConfig.osfault.flash.faultsPerKHour = 10.0;
    fleetConfig.osfault.memory.episodesPerKHour = 2.0;
    fleetConfig.osfault.clock.skewPpm = 50.0;
    fleetConfig.osfault.radio.faultsPerKHour = 5.0;

    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();
    const ValidityReport report{results.evaluation, results.fleet.osfault};
    EXPECT_TRUE(report.planes.any());

    ValidityBounds bounds;
    bounds.minFreezePrecision = 0.60;
    bounds.minFreezeRecall = 0.60;
    bounds.minSelfShutdownPrecision = 0.60;
    bounds.minSelfShutdownRecall = 0.60;
    bounds.minPanicCaptureRate = 0.60;
    EXPECT_EQ(firstViolation(report, bounds), "") << render(report);
    // The renderer keeps its stable greppable prefixes (CI depends on
    // them).
    const std::string text = render(report);
    EXPECT_NE(text.find("osfault recovery freeze: precision="), std::string::npos);
    EXPECT_NE(text.find("osfault plane memory: episodes="), std::string::npos);
}

// Without any plane the pipeline recovers ground truth essentially
// perfectly — the reference point the plane sweeps degrade from.
TEST(OsfaultValidity, NoPlanesMeansNearPerfectRecovery) {
    core::StudyConfig config;
    auto& fleetConfig = config.fleetConfig;
    fleetConfig.phoneCount = 3;
    fleetConfig.campaign = sim::Duration::days(40);
    fleetConfig.enrollmentWindow = sim::Duration::days(8);
    fleetConfig.seed = 11;
    fleetConfig.freezesPerHour *= 8.0;
    fleetConfig.selfShutdownsPerHour *= 8.0;
    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();
    const ValidityReport report{results.evaluation, results.fleet.osfault};
    ValidityBounds bounds;
    bounds.minFreezePrecision = 0.90;
    bounds.minFreezeRecall = 0.90;
    bounds.minSelfShutdownPrecision = 0.90;
    bounds.minSelfShutdownRecall = 0.90;
    bounds.minPanicCaptureRate = 0.90;
    EXPECT_EQ(firstViolation(report, bounds), "");
    EXPECT_FALSE(report.planes.any());
}

}  // namespace
}  // namespace symfail::osfault
