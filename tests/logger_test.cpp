// Tests for the failure data logger: record formats, heartbeat semantics,
// shutdown classification at boot, MAOFF handling, panic capture, and
// failure injection against the logger itself (torn writes).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <utility>

#include "faults/injector.hpp"
#include "fleet/fleet.hpp"
#include "logger/logger.hpp"
#include "logger/records.hpp"
#include "osfault/phone_planes.hpp"
#include "phone/device.hpp"
#include "simkernel/simulator.hpp"
#include "symbos/heap.hpp"

namespace symfail::logger {
namespace {

// -- Record serialization ---------------------------------------------------------

TEST(Records, BeatRoundTrip) {
    for (const auto kind :
         {BeatKind::Alive, BeatKind::Reboot, BeatKind::Maoff, BeatKind::Lowbt}) {
        const BeatRecord original{sim::TimePoint::fromMicros(123'456), kind};
        const auto parsed = parseBeat(serialize(original));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->time, original.time);
        EXPECT_EQ(parsed->kind, original.kind);
    }
}

TEST(Records, BeatParseRejectsMalformed) {
    EXPECT_FALSE(parseBeat("").has_value());
    EXPECT_FALSE(parseBeat("BEAT|123").has_value());
    EXPECT_FALSE(parseBeat("BEAT|abc|ALIVE").has_value());
    EXPECT_FALSE(parseBeat("BEAT|123|BOGUS").has_value());
    EXPECT_FALSE(parseBeat("BEAT|123|ALIVE|extra").has_value());
    EXPECT_FALSE(parseBeat("BEAT|12").has_value());
    // Torn tail: the int parse fails.
    EXPECT_FALSE(parseBeat("BEAT|123|ALI").has_value());
}

TEST(Records, PanicRecordRoundTrip) {
    PanicRecord original;
    original.time = sim::TimePoint::fromMicros(42'000'000);
    original.panic = symbos::kUserDesOverflow;
    original.runningApps = {"Messages", "Camera"};
    original.activity = ActivityContext::VoiceCall;
    original.batteryPercent = 61;
    std::size_t malformed = 0;
    const auto entries = parseLogFile(serialize(original) + "\n", &malformed);
    EXPECT_EQ(malformed, 0u);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_EQ(entries[0].type, LogFileEntry::Type::Panic);
    const auto& parsed = entries[0].panic;
    EXPECT_EQ(parsed.time, original.time);
    EXPECT_EQ(parsed.panic, original.panic);
    EXPECT_EQ(parsed.runningApps, original.runningApps);
    EXPECT_EQ(parsed.activity, original.activity);
    EXPECT_EQ(parsed.batteryPercent, original.batteryPercent);
}

TEST(Records, PanicRecordEmptyAppsRoundTrip) {
    PanicRecord original;
    original.time = sim::TimePoint::fromMicros(1);
    original.panic = symbos::kKernExecBadHandle;
    const auto entries = parseLogFile(serialize(original) + "\n");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_TRUE(entries[0].panic.runningApps.empty());
}

TEST(Records, BootRecordRoundTrip) {
    for (const auto prior :
         {PriorShutdown::None, PriorShutdown::Freeze, PriorShutdown::Reboot,
          PriorShutdown::LowBattery, PriorShutdown::ManualOff}) {
        BootRecord original;
        original.time = sim::TimePoint::fromMicros(9'000'000);
        original.prior = prior;
        original.lastBeatAt = sim::TimePoint::fromMicros(8'000'000);
        const auto entries = parseLogFile(serialize(original) + "\n");
        ASSERT_EQ(entries.size(), 1u);
        ASSERT_EQ(entries[0].type, LogFileEntry::Type::Boot);
        EXPECT_EQ(entries[0].boot.prior, prior);
        EXPECT_EQ(entries[0].boot.lastBeatAt, original.lastBeatAt);
    }
}

TEST(Records, ParseSkipsMalformedLinesAndCounts) {
    BootRecord boot;
    boot.time = sim::TimePoint::fromMicros(5);
    const std::string content = serialize(boot) + "\nGARBAGE LINE\nPANIC|broken\n" +
                                serialize(boot) + "\n";
    std::size_t malformed = 0;
    const auto entries = parseLogFile(content, &malformed);
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(malformed, 2u);
}

TEST(Records, SplitFieldsHandlesEmptyFields) {
    const auto fields = splitFields("a||c|", '|');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "c");
    EXPECT_EQ(fields[3], "");
}

// -- Logger behaviour ----------------------------------------------------------------

class LoggerFixture : public ::testing::Test {
protected:
    LoggerFixture() {
        phone::PhoneDevice::Config config;
        config.name = "logger-test";
        config.seed = 3;
        // Keep the user model quiet so tests control the timeline.
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
        config.profile.telephoneForegroundProb = 1.0;  // deterministic listing
        device_ = std::make_unique<phone::PhoneDevice>(simulator_, config);
        logger_ = std::make_unique<FailureLogger>(*device_);
    }

    void runFor(sim::Duration d) { simulator_.runUntil(simulator_.now() + d); }

    [[nodiscard]] std::string lastBeatLine() {
        return device_->flash().lastLine(kBeatsFile);
    }

    sim::Simulator simulator_;
    // Declared before the device so it is destroyed after it: the device's
    // teardown runs the logger's kernel termination hook.
    std::unique_ptr<FailureLogger> logger_;
    std::unique_ptr<phone::PhoneDevice> device_;
};

TEST_F(LoggerFixture, HeartbeatWritesAlivePeriodically) {
    device_->powerOn();
    runFor(sim::Duration::minutes(10));
    // One ALIVE at boot plus one per heartbeat period.
    const auto expected =
        1 + 10 * 60 / logger_->config().heartbeatPeriod.totalSeconds();
    EXPECT_NEAR(static_cast<double>(logger_->heartbeatsWritten()),
                static_cast<double>(expected), 1.0);
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Alive);
}

TEST_F(LoggerFixture, GracefulShutdownWritesReboot) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Reboot);
}

TEST_F(LoggerFixture, LowBatteryShutdownWritesLowbt) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::LowBattery);
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Lowbt);
}

TEST_F(LoggerFixture, FreezeLeavesAliveAsLastEvent) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->freeze("test");
    runFor(sim::Duration::hours(2));  // frozen: no more writes
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Alive);
}

TEST_F(LoggerFixture, BootClassifiesPriorShutdown) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    runFor(sim::Duration::hours(1));
    device_->powerOn();

    const auto entries = parseLogFile(logger_->logFileContent());
    // First boot: prior None.  Second boot: prior Reboot with off-time.
    std::vector<BootRecord> boots;
    for (const auto& entry : entries) {
        if (entry.type == LogFileEntry::Type::Boot) boots.push_back(entry.boot);
    }
    ASSERT_EQ(boots.size(), 2u);
    EXPECT_EQ(boots[0].prior, PriorShutdown::None);
    EXPECT_EQ(boots[1].prior, PriorShutdown::Reboot);
    EXPECT_NEAR((boots[1].time - boots[1].lastBeatAt).asSecondsF(), 3'600.0, 1.0);
}

TEST_F(LoggerFixture, BootAfterFreezeClassifiesFreeze) {
    device_->powerOn();
    runFor(sim::Duration::minutes(7));
    device_->freeze("hang");
    runFor(sim::Duration::minutes(30));
    device_->abruptPowerOff();
    runFor(sim::Duration::minutes(1));
    device_->powerOn();

    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_GE(entries.size(), 2u);
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::Freeze);
    // The last ALIVE is within one heartbeat period of the freeze.
    const double gap = (sim::TimePoint::origin() + sim::Duration::minutes(7) -
                        last.boot.lastBeatAt)
                           .asSecondsF();
    EXPECT_GE(gap, 0.0);
    EXPECT_LE(gap, logger_->config().heartbeatPeriod.asSecondsF() + 1.0);
}

TEST_F(LoggerFixture, MaoffWrittenAndClassified) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->toggleLogger(false);
    EXPECT_FALSE(logger_->enabled());
    const auto beat = parseBeat(lastBeatLine());
    ASSERT_TRUE(beat.has_value());
    EXPECT_EQ(beat->kind, BeatKind::Maoff);

    // While off, no heartbeats accumulate.
    const auto before = logger_->heartbeatsWritten();
    runFor(sim::Duration::minutes(10));
    EXPECT_EQ(logger_->heartbeatsWritten(), before);

    // Phone reboots while the logger is off; the next enabled boot writes
    // a BOOT record with prior ManualOff.
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    runFor(sim::Duration::minutes(2));
    device_->powerOn();
    device_->toggleLogger(true);
    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::ManualOff);
}

TEST_F(LoggerFixture, PanicRecordCapturesContext) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->startAppSession(phone::kAppCamera, sim::Duration::minutes(10));
    device_->activityBegin(symbos::ActivityKind::VoiceCall);

    const auto victim =
        device_->kernel().createProcess("Buggy", symbos::ProcessKind::UserApp);
    device_->kernel().runInProcess(victim, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kKernExecAccessViolation, "null deref");
    });

    const auto entries = parseLogFile(logger_->logFileContent());
    // The panic record is chased by its structured dump.
    ASSERT_GE(entries.size(), 2u);
    ASSERT_EQ(entries.back().type, LogFileEntry::Type::Dump);
    const auto& last = entries[entries.size() - 2];
    ASSERT_EQ(last.type, LogFileEntry::Type::Panic);
    EXPECT_EQ(last.panic.panic, symbos::kKernExecAccessViolation);
    EXPECT_EQ(last.panic.activity, ActivityContext::VoiceCall);
    // Camera session and the in-call Telephone app are both running.
    EXPECT_NE(std::find(last.panic.runningApps.begin(), last.panic.runningApps.end(),
                        "Camera"),
              last.panic.runningApps.end());
    EXPECT_NE(std::find(last.panic.runningApps.begin(), last.panic.runningApps.end(),
                        "Telephone"),
              last.panic.runningApps.end());
}

TEST_F(LoggerFixture, MessageContextWinsWhenNoCall) {
    device_->powerOn();
    runFor(sim::Duration::minutes(1));
    device_->activityBegin(symbos::ActivityKind::TextMessage);
    const auto victim =
        device_->kernel().createProcess("Buggy", symbos::ProcessKind::UserApp);
    device_->kernel().runInProcess(victim, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kMsgsClientWriteFailed, "msg bug");
    });
    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_GE(entries.size(), 2u);
    ASSERT_EQ(entries.back().type, LogFileEntry::Type::Dump);
    const auto& panicEntry = entries[entries.size() - 2];
    ASSERT_EQ(panicEntry.type, LogFileEntry::Type::Panic);
    EXPECT_EQ(panicEntry.panic.activity, ActivityContext::Message);
}

TEST_F(LoggerFixture, TornBeatLineClassifiedAsFreeze) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->abruptPowerOff();
    // The battery pull tore the final heartbeat write.
    device_->flash().tearTail(kBeatsFile, 4);
    runFor(sim::Duration::minutes(1));
    device_->powerOn();
    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::Freeze);
}

TEST_F(LoggerFixture, TornBeatTailIsCountedAndClassifiedConservatively) {
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    // Tear the REBOOT beat mid-line.  The beats file is compacted to a
    // single line, so once its tail is torn no complete line survives to
    // recover from: the boot counts both anomalies (torn tail plus
    // malformed line) and falls back to the conservative Freeze
    // classification with no beat-time evidence.
    const phone::FlashTail intact = device_->flash().readTail(kBeatsFile);
    ASSERT_FALSE(intact.torn);
    device_->flash().tearTail(kBeatsFile, 3);
    EXPECT_TRUE(device_->flash().readTail(kBeatsFile).torn);
    runFor(sim::Duration::minutes(1));
    device_->powerOn();

    const auto entries = parseLogFile(logger_->logFileContent());
    ASSERT_FALSE(entries.empty());
    const auto& last = entries.back();
    ASSERT_EQ(last.type, LogFileEntry::Type::Boot);
    EXPECT_EQ(last.boot.prior, PriorShutdown::Freeze);
    EXPECT_EQ(logger_->tornBeatTails(), 1u);
    EXPECT_EQ(logger_->malformedBeatLines(), 1u);
    EXPECT_EQ(logger_->recordAnomalies(), 2u);
    // No surviving complete beat line → no lastBeatAt evidence.
    EXPECT_EQ(last.boot.lastBeatAt, sim::TimePoint::origin());
}

TEST_F(LoggerFixture, CleanRunsCountNoRecordAnomalies) {
    // An app session stays open until the reboot; the logger writes no
    // file of its own for it.
    device_->powerOn();
    device_->startAppSession(phone::kAppClock, sim::Duration::hours(2));
    runFor(sim::Duration::minutes(10));
    device_->requestShutdown(phone::ShutdownKind::UserOff);
    runFor(sim::Duration::minutes(1));
    device_->powerOn();
    runFor(sim::Duration::minutes(5));
    EXPECT_EQ(logger_->recordAnomalies(), 0u);
    EXPECT_EQ(logger_->daemonDeaths(), 0u);
    EXPECT_EQ(device_->flash().fileCount(), 2u);  // the beats file and the Log File
}

TEST_F(LoggerFixture, DisabledLoggerWritesNothingAtBoot) {
    phone::PhoneDevice::Config deviceConfig;
    deviceConfig.name = "dark";
    deviceConfig.seed = 4;
    phone::PhoneDevice device{simulator_, deviceConfig};
    FailureLogger darkLogger{device};
    darkLogger.setEnabled(false);  // the user's off switch, before the boot
    device.powerOn();
    simulator_.runUntil(simulator_.now() + sim::Duration::hours(1));
    EXPECT_EQ(darkLogger.heartbeatsWritten(), 0u);
    EXPECT_TRUE(darkLogger.logFileContent().empty());
}

// -- Derived ticks ---------------------------------------------------------------
//
// A logger derives its periodic ticks at the next sync instead of running
// RTimer-driven AOs; observeTicks() keeps the AOs.  Both must leave the
// same bytes in the beats file and the Log File, under every fault plane
// that acts on the logger.

constexpr std::array<std::string_view, 2> kPrintedFiles = {kBeatsFile, kLogFile};

/// Sizes and hashes of the beats file and the Log File: enough to tell
/// two runs apart without keeping a Log File per boot.
using FlashPrint = std::array<std::pair<std::size_t, std::size_t>, 2>;

FlashPrint flashPrint(const phone::FlashStore& flash) {
    FlashPrint print{};
    for (std::size_t i = 0; i < kPrintedFiles.size(); ++i) {
        const std::string& text = flash.content(kPrintedFiles[i]);
        print[i] = {text.size(), std::hash<std::string>{}(text)};
    }
    return print;
}

/// Every counter of the flash, memory and clock planes.
std::vector<std::uint64_t> planeCounts(const osfault::CampaignPlaneStats& stats) {
    return {stats.flash.activations,  stats.flash.bitFlips,
            stats.flash.tornWrites,   stats.flash.droppedWrites,
            stats.memory.episodes,    stats.memory.oomKills,
            stats.memory.restarts,    stats.clock.jumps,
            stats.clock.backwardJumps, stats.clock.monotonicityViolations};
}

struct TickRun {
    std::vector<FlashPrint> atBoots;
    FlashPrint atEnd{};
    std::uint64_t heartbeats{0};
    std::uint64_t daemonDeaths{0};
    osfault::CampaignPlaneStats planes;
};

/// One phone with the default user profile and faults at 8x the fleet's
/// rates, run for 60 days under `planes`, attached as the fleet attaches
/// them; the files are printed at every boot, by a boot hook that runs
/// before the logger's.
/// The fleet's fault rates, eight times over.
faults::FaultRates eightfoldRates() {
    fleet::FleetConfig fleetConfig;
    fleetConfig.panicsPerHour *= 8.0;
    fleetConfig.freezesPerHour *= 8.0;
    fleetConfig.selfShutdownsPerHour *= 8.0;
    return faults::deriveRates(fleet::derivePlan(fleetConfig));
}

TickRun runFaultedPhone(std::uint64_t seed, bool observed,
                        const osfault::PlaneConfig& planes) {
    const auto rates = eightfoldRates();
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "ticks";
    config.seed = seed;
    // Declared before the device so they outlive it.
    osfault::PhonePlanes phonePlanes;
    std::unique_ptr<FailureLogger> logger;
    std::unique_ptr<faults::FaultInjector> injector;
    auto device = std::make_unique<phone::PhoneDevice>(simulator, config);
    TickRun run;
    device->addBootHook([&]() { run.atBoots.push_back(flashPrint(device->flash())); });
    logger = std::make_unique<FailureLogger>(*device);
    if (observed) logger->observeTicks();
    injector = std::make_unique<faults::FaultInjector>(*device, rates, seed * 31 + 7);
    if (planes.anyEnabled()) {
        phonePlanes = osfault::attachPlanes(planes, simulator, *device, *logger, nullptr,
                                            nullptr, seed * 17 + 3);
    }
    device->powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(60));
    // Read before the files: a plane's statistics must count the ticks
    // due by the end on their own, as the fleet reads them.
    phonePlanes.addStats(run.planes);
    run.atEnd = flashPrint(device->flash());
    run.heartbeats = logger->heartbeatsWritten();
    run.daemonDeaths = logger->daemonDeaths();
    return run;
}

TEST(DerivedTicks, TickFilesMatchAoTicksAtEveryBoot) {
    // No plane, then each plane that acts on the logger at a rate that
    // arms write faults against the beats file, OOM-kills the daemon or
    // steps the clock backwards many times in 60 days, then all three at
    // once: a write fault armed against the beats file, a device clock and
    // a squeezed daemon together.
    osfault::PlaneConfig flash;
    flash.flash.faultsPerKHour = 2'000.0;
    osfault::PlaneConfig memory;
    memory.memory.episodesPerKHour = 200.0;
    osfault::PlaneConfig clock;
    clock.clock.skewPpm = 200.0;
    clock.clock.jumpsPerKHour = 500.0;
    osfault::PlaneConfig all;
    all.flash = flash.flash;
    all.memory = memory.memory;
    all.clock = clock.clock;
    for (const osfault::PlaneConfig& planes :
         {osfault::PlaneConfig{}, flash, memory, clock, all}) {
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
            SCOPED_TRACE(testing::Message() << "flash " << planes.flash.faultsPerKHour
                                            << " memory " << planes.memory.episodesPerKHour
                                            << " clock " << planes.clock.jumpsPerKHour
                                            << " seed " << seed);
            const TickRun derived = runFaultedPhone(seed, false, planes);
            const TickRun ao = runFaultedPhone(seed, true, planes);
            EXPECT_GT(derived.atBoots.size(), 5u);
            ASSERT_EQ(derived.atBoots.size(), ao.atBoots.size());
            for (std::size_t boot = 0; boot < ao.atBoots.size(); ++boot) {
                EXPECT_EQ(derived.atBoots[boot], ao.atBoots[boot]) << "boot " << boot;
            }
            EXPECT_EQ(derived.atEnd, ao.atEnd);
            EXPECT_EQ(derived.heartbeats, ao.heartbeats);
            EXPECT_EQ(derived.daemonDeaths, ao.daemonDeaths);
            EXPECT_EQ(planeCounts(derived.planes), planeCounts(ao.planes));
            EXPECT_GT(ao.heartbeats, 30'000u);
            if (planes.flash.enabled()) {
                EXPECT_GT(ao.planes.flash.tornWrites, 0u);
                EXPECT_GT(ao.planes.flash.droppedWrites, 0u);
            }
            if (planes.memory.enabled()) {
                EXPECT_GT(ao.planes.memory.oomKills, 0u);
                EXPECT_GT(ao.planes.memory.restarts, 0u);
            }
            if (planes.clock.enabled()) {
                EXPECT_GT(ao.planes.clock.backwardJumps, 0u);
                EXPECT_GT(ao.planes.clock.monotonicityViolations, 0u);
            }
        }
    }
}

struct QuietOutcome {
    std::string beats;
    std::string logFile;
    std::uint64_t heartbeats{0};
};

using Scenario =
    std::function<void(sim::Simulator&, phone::PhoneDevice&, FailureLogger&)>;

/// Boots a phone whose user does nothing at t = 0, runs `scenario`, and
/// returns what the logger left in flash.
QuietOutcome runQuietPhone(bool observed, const Scenario& scenario) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "quiet";
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
    std::unique_ptr<FailureLogger> logger;
    auto device = std::make_unique<phone::PhoneDevice>(simulator, config);
    logger = std::make_unique<FailureLogger>(*device);
    if (observed) logger->observeTicks();
    device->powerOn();
    scenario(simulator, *device, *logger);
    QuietOutcome outcome;
    outcome.beats = device->flash().content(kBeatsFile);
    outcome.logFile = logger->logFileContent();
    outcome.heartbeats = logger->heartbeatsWritten();
    return outcome;
}

/// Runs `scenario` with derived and with AO ticks, expects the same
/// outcome, and returns it.
QuietOutcome expectSameInBothModes(const Scenario& scenario) {
    const QuietOutcome derived = runQuietPhone(false, scenario);
    const QuietOutcome ao = runQuietPhone(true, scenario);
    EXPECT_EQ(derived.beats, ao.beats);
    EXPECT_EQ(derived.logFile, ao.logFile);
    EXPECT_EQ(derived.heartbeats, ao.heartbeats);
    return ao;
}

/// The BOOT records of a Log File.
std::vector<BootRecord> bootRecords(const std::string& logFile) {
    std::vector<BootRecord> boots;
    for (const auto& entry : parseLogFile(logFile)) {
        if (entry.type == LogFileEntry::Type::Boot) boots.push_back(entry.boot);
    }
    return boots;
}

TEST(DerivedTicks, FreezeQueuedAtAHeartbeatsInstantSuppressesIt) {
    // The freeze was queued before the tick's completion, so it runs
    // first and the suspended kernel drops the tick: the last beat is the
    // boot's.
    const auto heartbeat = LoggerConfig{}.heartbeatPeriod;
    const QuietOutcome outcome =
        expectSameInBothModes([&](sim::Simulator& simulator, phone::PhoneDevice& device, FailureLogger&) {
            simulator.scheduleAt(sim::TimePoint::origin() + heartbeat, "test",
                                 [&device]() { device.freeze("hang"); });
            simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(12));
        });
    const auto boots = bootRecords(outcome.logFile);
    ASSERT_EQ(boots.size(), 2u);
    EXPECT_EQ(boots[1].prior, PriorShutdown::Freeze);
    EXPECT_EQ(boots[1].lastBeatAt, sim::TimePoint::origin());
}

TEST(DerivedTicks, BatteryPullBetweenRunsKeepsTheHeartbeatAtThatInstant) {
    const auto heartbeat = LoggerConfig{}.heartbeatPeriod;
    const QuietOutcome outcome =
        expectSameInBothModes([&](sim::Simulator& simulator, phone::PhoneDevice& device, FailureLogger&) {
            simulator.runUntil(sim::TimePoint::origin() + heartbeat * 3);
            device.abruptPowerOff();
            simulator.runUntil(simulator.now() + sim::Duration::minutes(1));
            device.powerOn();
        });
    const auto boots = bootRecords(outcome.logFile);
    ASSERT_EQ(boots.size(), 2u);
    EXPECT_EQ(boots[1].prior, PriorShutdown::Freeze);
    EXPECT_EQ(boots[1].lastBeatAt, sim::TimePoint::origin() + heartbeat * 3);
}

/// What the memory plane does to a running daemon: AO ticks from now on,
/// and a heap too small for the next heartbeat's scratch cell.
void squeezeDaemonHeap(phone::PhoneDevice& device, FailureLogger& logger) {
    logger.switchToAoTicks();
    symbos::HeapModel& heap = device.kernel().heapOf(logger.daemonPid());
    heap.setCapacity(heap.bytesInUse());
}

TEST(DerivedTicks, OomKillOnTheTenthHeartbeatDumpsOneAo) {
    // The squeeze lands before the tenth heartbeat, whose scratch
    // allocation kills the daemon: one PANIC and one DUMP, which counts
    // the daemon's one AO, and the ninth beat stays the last.
    const auto heartbeat = LoggerConfig{}.heartbeatPeriod;
    const auto kill = sim::TimePoint::origin() + heartbeat * 10;
    const QuietOutcome outcome = expectSameInBothModes(
        [&](sim::Simulator& simulator, phone::PhoneDevice& device, FailureLogger& logger) {
            simulator.scheduleAt(kill - sim::Duration::seconds(30), "test.squeeze",
                                 [&device, &logger]() { squeezeDaemonHeap(device, logger); });
            simulator.runUntil(sim::TimePoint::origin() + sim::Duration::hours(1));
        });
    EXPECT_EQ(outcome.beats,
              serialize(BeatRecord{sim::TimePoint::origin() + heartbeat * 9, BeatKind::Alive}) +
                  "\n");
    std::vector<PanicRecord> panics;
    std::vector<crash::CrashDump> dumps;
    for (const auto& entry : parseLogFile(outcome.logFile)) {
        if (entry.type == LogFileEntry::Type::Panic) panics.push_back(entry.panic);
        if (entry.type == LogFileEntry::Type::Dump) dumps.push_back(entry.dump);
    }
    ASSERT_EQ(panics.size(), 1u);
    EXPECT_EQ(panics[0].panic, symbos::kCBaseSchedulerError);
    EXPECT_EQ(panics[0].time, kill);
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_EQ(dumps[0].panic, symbos::kCBaseSchedulerError);
    EXPECT_EQ(dumps[0].time, kill);
    EXPECT_EQ(dumps[0].schedulerAoCount, 1u);
    EXPECT_EQ(dumps[0].heapTotalAllocs, 9u);  // the nine heartbeats before
}

/// Arms one write fault against one file, as the flash plane does after
/// it syncs the logger.
class ArmedWriteFault final : public phone::FlashFaultInjector {
public:
    void arm(std::string_view file, Verdict verdict) {
        file_ = file;
        verdict_ = verdict;
    }
    Verdict onWrite(std::string_view file, std::string_view /*line*/) override {
        if (!armed(file)) return {};
        return std::exchange(verdict_, Verdict{});
    }
    [[nodiscard]] bool armed(std::string_view file) const override {
        return verdict_.kind != Kind::None && file == file_;
    }

private:
    std::string file_;
    Verdict verdict_;
};

TEST(DerivedTicks, TornBeatArmedBeforeSeveralDueBeatsTearsTheFirst) {
    // The next beat after the arming is torn and the 18 after it overwrite
    // it, so the beats file ends complete in both modes.
    const auto heartbeat = LoggerConfig{}.heartbeatPeriod;
    ArmedWriteFault fault;
    const QuietOutcome outcome = expectSameInBothModes(
        [&](sim::Simulator& simulator, phone::PhoneDevice& device, FailureLogger&) {
            device.flash().setFaultInjector(&fault);
            simulator.scheduleAt(sim::TimePoint::origin() + heartbeat + sim::Duration::seconds(30),
                                 "test.arm",
                                 [&device, &fault]() {
                                     device.syncLogger();
                                     fault.arm(kBeatsFile, {phone::FlashFaultInjector::Kind::Torn, 5});
                                 });
            simulator.runUntil(sim::TimePoint::origin() + heartbeat * 20);
        });
    EXPECT_FALSE(fault.armed(kBeatsFile));
    EXPECT_EQ(outcome.beats,
              serialize(BeatRecord{sim::TimePoint::origin() + heartbeat * 20, BeatKind::Alive}) +
                  "\n");
}

// -- Beats reference ---------------------------------------------------------------
//
// The BOOT records checked against what the phone did, not against a second
// run of the same writers: the ground-truth journal says when each daemon
// run started and how it ended, and the heartbeat's cadence says which
// beat was the last one written.

/// The journal entries that start or end a daemon run, in time order.
std::vector<phone::TruthEvent> daemonJournal(const phone::GroundTruth& truth) {
    using phone::TruthKind;
    std::vector<phone::TruthEvent> journal;
    for (const TruthKind kind :
         {TruthKind::Boot, TruthKind::Freeze, TruthKind::SelfShutdown, TruthKind::UserShutdown,
          TruthKind::NightShutdown, TruthKind::LowBatteryShutdown, TruthKind::LoggerManualOff,
          TruthKind::LoggerManualOn}) {
        const auto events = truth.eventsOf(kind);
        journal.insert(journal.end(), events.begin(), events.end());
    }
    std::stable_sort(journal.begin(), journal.end(),
                     [](const phone::TruthEvent& a, const phone::TruthEvent& b) {
                         return a.time < b.time;
                     });
    return journal;
}

using ClockFn = std::function<sim::TimePoint(sim::TimePoint)>;

/// The BOOT records Section 5.2's rules give for `journal`.  A daemon run
/// starts at a boot or when the user turns the logger back on, and beats
/// every heartbeat period from its start.  A graceful shutdown or MAOFF
/// writes its marker at its instant; a freeze leaves the last beat before
/// it (a beat due at the freeze's instant loses to the freeze, METHODOLOGY
/// §1).  Stamps go through `clock`.
std::vector<BootRecord> referenceBoots(const std::vector<phone::TruthEvent>& journal,
                                       const ClockFn& clock) {
    using phone::TruthKind;
    const sim::Duration period = LoggerConfig{}.heartbeatPeriod;
    std::vector<BootRecord> boots;
    bool enabled = true;
    bool running = false;
    sim::TimePoint started;
    // What the beats file's last line says, in simulation time.
    PriorShutdown prior = PriorShutdown::None;
    sim::TimePoint lastBeat = sim::TimePoint::origin();
    const auto start = [&](sim::TimePoint at) {
        boots.push_back(BootRecord{
            clock(at), prior,
            prior == PriorShutdown::None ? sim::TimePoint::origin() : clock(lastBeat)});
        running = true;
        started = at;
        prior = PriorShutdown::Freeze;  // an ALIVE beat
        lastBeat = at;
    };
    const auto stop = [&](PriorShutdown marker, sim::TimePoint at) {
        if (!running) return;
        running = false;
        prior = marker;
        lastBeat = at;
    };
    for (const phone::TruthEvent& event : journal) {
        switch (event.kind) {
            case TruthKind::Boot:
                if (enabled) start(event.time);
                break;
            case TruthKind::LoggerManualOn:
                if (!enabled) {
                    enabled = true;
                    start(event.time);
                }
                break;
            case TruthKind::LoggerManualOff:
                if (enabled) {
                    enabled = false;
                    stop(PriorShutdown::ManualOff, event.time);
                }
                break;
            case TruthKind::Freeze: {
                const std::int64_t beats =
                    ((event.time - started).totalMicros() - 1) / period.totalMicros();
                stop(PriorShutdown::Freeze, started + period * beats);
                break;
            }
            case TruthKind::LowBatteryShutdown:
                stop(PriorShutdown::LowBattery, event.time);
                break;
            default:  // the self, user and night shutdowns
                stop(PriorShutdown::Reboot, event.time);
                break;
        }
    }
    return boots;
}

TEST(BeatsReference, BootRecordsMatchTheGroundTruthJournal) {
    // Without a clock plane the stamps are simulation time; with a
    // skew-only one (no jumps) the clock is a pure function of it.
    constexpr double kSkewPpm = 200.0;
    const ClockFn trueTime = [](sim::TimePoint t) { return t; };
    const ClockFn skewed = [](sim::TimePoint t) {
        const double elapsed = (t - sim::TimePoint::origin()).asSecondsF();
        return t + sim::Duration::fromSecondsF(elapsed * kSkewPpm / 1e6);
    };
    osfault::PlaneConfig skew;
    skew.clock.skewPpm = kSkewPpm;
    std::map<PriorShutdown, std::size_t> priors;
    for (const bool clocked : {false, true}) {
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
            SCOPED_TRACE(testing::Message() << "clock plane " << clocked << " seed " << seed);
            sim::Simulator simulator;
            phone::PhoneDevice::Config config;
            config.name = "reference";
            config.seed = seed;
            config.profile.loggerTogglesPerMonth = 3.0;
            // Declared before the device so they outlive it.
            osfault::PhonePlanes planes;
            std::unique_ptr<FailureLogger> logger;
            std::unique_ptr<faults::FaultInjector> injector;
            auto device = std::make_unique<phone::PhoneDevice>(simulator, config);
            logger = std::make_unique<FailureLogger>(*device);
            injector = std::make_unique<faults::FaultInjector>(*device, eightfoldRates(),
                                                               seed * 31 + 7);
            if (clocked) {
                planes = osfault::attachPlanes(skew, simulator, *device, *logger, nullptr,
                                               nullptr, seed * 17 + 3);
            }
            device->powerOn();
            simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(60));

            const std::vector<BootRecord> expected = referenceBoots(
                daemonJournal(device->groundTruth()), clocked ? skewed : trueTime);
            const std::vector<BootRecord> boots = bootRecords(logger->logFileContent());
            EXPECT_GT(boots.size(), 5u);
            ASSERT_EQ(boots.size(), expected.size());
            for (std::size_t i = 0; i < boots.size(); ++i) {
                SCOPED_TRACE(testing::Message() << "boot " << i);
                EXPECT_EQ(boots[i].time, expected[i].time);
                EXPECT_EQ(boots[i].prior, expected[i].prior);
                EXPECT_EQ(boots[i].lastBeatAt, expected[i].lastBeatAt);
                ++priors[boots[i].prior];
            }
        }
    }
    // Freezes, graceful shutdowns and MAOFF all ended daemon runs (these
    // phones never ran their battery flat).
    EXPECT_GT(priors[PriorShutdown::Freeze], 10u);
    EXPECT_GT(priors[PriorShutdown::Reboot], 10u);
    EXPECT_GT(priors[PriorShutdown::ManualOff], 0u);
}

}  // namespace
}  // namespace symfail::logger
