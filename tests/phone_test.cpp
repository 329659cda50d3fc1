// Tests for the device model: power state machine, app sessions, flash
// store, activities, battery, user model behaviour, ground truth.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "logger/logger.hpp"
#include "obs/fnv.hpp"
#include "phone/apps.hpp"
#include "phone/device.hpp"
#include "phone/flash.hpp"
#include "phone/ground_truth.hpp"
#include "simkernel/simulator.hpp"

namespace symfail::phone {
namespace {

// -- App catalog --------------------------------------------------------------

TEST(AppCatalog, ContainsPaperApplications) {
    for (const auto name : {kAppMessages, kAppCamera, kAppClock, kAppLog,
                            kAppContacts, kAppTelephone, kAppBtBrowser,
                            kAppFExplorer, kAppTomTom}) {
        EXPECT_NO_THROW((void)appInfo(name));
    }
    EXPECT_THROW((void)appInfo("NotAnApp"), std::invalid_argument);
}

TEST(AppCatalog, CoreAppsAreCore) {
    EXPECT_EQ(appInfo(kAppTelephone).kind, symbos::ProcessKind::CoreApp);
    EXPECT_EQ(appInfo(kAppMessages).kind, symbos::ProcessKind::CoreApp);
    EXPECT_EQ(appInfo(kAppCamera).kind, symbos::ProcessKind::UserApp);
}

// -- Flash store ----------------------------------------------------------------

TEST(Flash, AppendAndLines) {
    FlashStore flash;
    flash.appendLine("f", "one");
    flash.appendLine("f", "two");
    EXPECT_TRUE(flash.exists("f"));
    EXPECT_EQ(flash.content("f"), "one\ntwo\n");
    EXPECT_EQ(flash.lastLine("f"), "two");
}

TEST(Flash, ReplaceWithLineCompacts) {
    FlashStore flash;
    flash.appendLine("beats", "a");
    flash.appendLine("beats", "b");
    flash.replaceWithLine("beats", "c");
    EXPECT_EQ(flash.content("beats"), "c\n");
}

TEST(Flash, MissingFileBehaviour) {
    FlashStore flash;
    EXPECT_FALSE(flash.exists("nope"));
    EXPECT_TRUE(flash.content("nope").empty());
    EXPECT_TRUE(flash.lastLine("nope").empty());
    flash.tearTail("nope", 10);  // no-op
}

TEST(Flash, TearTailTruncates) {
    FlashStore flash;
    flash.appendLine("f", "hello");
    flash.tearTail("f", 3);
    EXPECT_EQ(flash.content("f"), "hel");
    flash.tearTail("f", 100);
    EXPECT_TRUE(flash.content("f").empty());
}

TEST(Flash, RotationDropsOldestHalf) {
    FlashStore flash;
    // 200 lines of 64 KiB write 12.5 MiB, past the 8 MiB limit.
    const std::string filler(64 * 1024, 'x');
    for (int i = 0; i < 200; ++i) {
        flash.appendLine("log", "line-" + std::to_string(i) + "-" + filler);
    }
    EXPECT_LE(flash.content("log").size(), FlashStore::kRotateLimitBytes);
    // The newest line always survives rotation.
    EXPECT_EQ(flash.lastLine("log"), "line-199-" + filler);
    // The oldest lines are gone.
    EXPECT_EQ(flash.content("log").find("line-0-"), std::string::npos);
}

TEST(Flash, TotalBytesAndClear) {
    FlashStore flash;
    flash.appendLine("a", "12345");
    flash.appendLine("b", "123");
    // 5+1 and 3+1 newlines.
    EXPECT_EQ(flash.content("a").size() + flash.content("b").size(), 10u);
    EXPECT_EQ(flash.fileCount(), 2u);
    flash.clear();
    EXPECT_EQ(flash.fileCount(), 0u);
}

// -- Ground truth ------------------------------------------------------------------

TEST(GroundTruthRecord, CountsAndFilters) {
    GroundTruth truth;
    truth.record(sim::TimePoint::fromMicros(1), TruthKind::Boot);
    truth.record(sim::TimePoint::fromMicros(2), TruthKind::Freeze);
    truth.record(sim::TimePoint::fromMicros(3), TruthKind::Freeze);
    EXPECT_EQ(truth.countOf(TruthKind::Freeze), 2u);
    EXPECT_EQ(truth.countOf(TruthKind::SelfShutdown), 0u);
    const auto freezes = truth.eventsOf(TruthKind::Freeze);
    ASSERT_EQ(freezes.size(), 2u);
    EXPECT_EQ(freezes[0].time, sim::TimePoint::fromMicros(2));
    EXPECT_EQ(freezes[1].time, sim::TimePoint::fromMicros(3));
}

// -- Device state machine -------------------------------------------------------------

class DeviceFixture : public ::testing::Test {
protected:
    DeviceFixture() {
        PhoneDevice::Config config;
        config.name = "dut";
        config.seed = 11;
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
        device_ = std::make_unique<PhoneDevice>(simulator_, config);
    }

    void runFor(sim::Duration d) { simulator_.runUntil(simulator_.now() + d); }

    sim::Simulator simulator_;
    std::unique_ptr<PhoneDevice> device_;
};

TEST_F(DeviceFixture, BootCreatesResidentProcesses) {
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Off);
    device_->powerOn();
    EXPECT_TRUE(device_->isOn());
    EXPECT_NE(device_->pidOf(kProcWindowServer), 0u);
    EXPECT_NE(device_->pidOf(kProcFileServer), 0u);
    EXPECT_NE(device_->pidOf(kAppTelephone), 0u);
    EXPECT_NE(device_->pidOf(kProcMsgServer), 0u);
    EXPECT_EQ(device_->bootCount(), 1u);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::Boot), 1u);
}

TEST_F(DeviceFixture, DoublePowerOnIsNoop) {
    device_->powerOn();
    device_->powerOn();
    EXPECT_EQ(device_->bootCount(), 1u);
}

TEST_F(DeviceFixture, GracefulShutdownRunsHooks) {
    std::vector<ShutdownKind> kinds;
    bool powerDownRan = false;
    device_->addShutdownHook([&](ShutdownKind kind) { kinds.push_back(kind); });
    device_->addPowerDownHook([&]() { powerDownRan = true; });
    device_->powerOn();
    device_->requestShutdown(ShutdownKind::NightOff);
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Off);
    ASSERT_EQ(kinds.size(), 1u);
    EXPECT_EQ(kinds[0], ShutdownKind::NightOff);
    EXPECT_TRUE(powerDownRan);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::NightShutdown), 1u);
}

TEST_F(DeviceFixture, AbruptPowerOffSkipsShutdownHooks) {
    bool shutdownRan = false;
    bool powerDownRan = false;
    device_->addShutdownHook([&](ShutdownKind) { shutdownRan = true; });
    device_->addPowerDownHook([&]() { powerDownRan = true; });
    device_->powerOn();
    device_->abruptPowerOff();
    EXPECT_FALSE(shutdownRan);
    EXPECT_TRUE(powerDownRan);
}

TEST_F(DeviceFixture, SelfRebootRestartsAutomatically) {
    device_->powerOn();
    runFor(sim::Duration::hours(1));
    device_->selfReboot("test");
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Off);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::SelfShutdown), 1u);
    runFor(sim::Duration::hours(1));
    EXPECT_TRUE(device_->isOn());
    EXPECT_EQ(device_->bootCount(), 2u);
}

TEST_F(DeviceFixture, FreezeSuspendsKernelAndUserRecovers) {
    device_->powerOn();
    runFor(sim::Duration::hours(2));  // into waking hours? t=2h is night; freeze anyway
    device_->freeze("hang");
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Frozen);
    EXPECT_TRUE(device_->kernel().suspended());
    // The user eventually pulls the battery and the phone comes back.
    runFor(sim::Duration::days(1));
    EXPECT_TRUE(device_->isOn());
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::BatteryPull), 1u);
    EXPECT_FALSE(device_->kernel().suspended());
}

TEST_F(DeviceFixture, FreezeWhenOffIsIgnored) {
    device_->freeze("nothing to freeze");
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Off);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::Freeze), 0u);
}

TEST_F(DeviceFixture, AppSessionsStartAndClose) {
    device_->powerOn();
    const auto pid = device_->startAppSession(kAppCamera, sim::Duration::minutes(5));
    ASSERT_NE(pid, 0u);
    EXPECT_TRUE(device_->kernel().alive(pid));
    EXPECT_EQ(device_->runningUserApps(), (std::vector<std::string>{"Camera"}));
    // Duplicate session refused.
    EXPECT_EQ(device_->startAppSession(kAppCamera, sim::Duration::minutes(5)), 0u);
    // Session closes itself after its duration.
    runFor(sim::Duration::minutes(6));
    EXPECT_FALSE(device_->kernel().alive(pid));
    EXPECT_TRUE(device_->runningUserApps().empty());
}

TEST_F(DeviceFixture, PanickedAppLeavesRunningList) {
    device_->powerOn();
    const auto pid = device_->startAppSession(kAppClock, sim::Duration::hours(1));
    ASSERT_NE(pid, 0u);
    device_->kernel().runInProcess(pid, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kKernExecAccessViolation, "clock bug");
    });
    EXPECT_TRUE(device_->runningUserApps().empty());
    EXPECT_TRUE(device_->isOn());  // user app: device survives
}

TEST_F(DeviceFixture, CoreAppPanicRebootsDevice) {
    device_->powerOn();
    runFor(sim::Duration::hours(1));
    const auto telephonePid = device_->pidOf(kAppTelephone);
    ASSERT_NE(telephonePid, 0u);
    device_->kernel().runInProcess(telephonePid, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kPhoneAppInternal, "telephony crash");
    });
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Off);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::SelfShutdown), 1u);
    runFor(sim::Duration::hours(1));
    EXPECT_TRUE(device_->isOn());  // self-reboot completed
}

TEST_F(DeviceFixture, WindowServerPanicFreezesDevice) {
    device_->powerOn();
    runFor(sim::Duration::hours(1));
    const auto wservPid = device_->pidOf(kProcWindowServer);
    ASSERT_NE(wservPid, 0u);
    device_->kernel().runInProcess(wservPid, [](symbos::ExecContext& ctx) {
        ctx.panic(symbos::kKernExecAccessViolation, "wserv crash");
    });
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Frozen);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::Freeze), 1u);
}

TEST_F(DeviceFixture, ActivitiesTrackedAndLogged) {
    device_->powerOn();
    int hookStarts = 0;
    device_->addActivityHook([&](symbos::ActivityKind kind, bool started) {
        if (kind == symbos::ActivityKind::VoiceCall && started) ++hookStarts;
    });
    device_->activityBegin(symbos::ActivityKind::VoiceCall);
    EXPECT_TRUE(device_->activityActive(symbos::ActivityKind::VoiceCall));
    EXPECT_TRUE(device_->appArch().isRunning(kAppTelephone));
    device_->activityEnd(symbos::ActivityKind::VoiceCall);
    EXPECT_FALSE(device_->activityActive(symbos::ActivityKind::VoiceCall));
    EXPECT_FALSE(device_->appArch().isRunning(kAppTelephone));
    EXPECT_EQ(hookStarts, 1);
}

TEST_F(DeviceFixture, OverlappingCallsRefcount) {
    device_->powerOn();
    device_->activityBegin(symbos::ActivityKind::VoiceCall);
    device_->activityBegin(symbos::ActivityKind::VoiceCall);  // waiting call
    device_->activityEnd(symbos::ActivityKind::VoiceCall);
    EXPECT_TRUE(device_->activityActive(symbos::ActivityKind::VoiceCall));
    device_->activityEnd(symbos::ActivityKind::VoiceCall);
    EXPECT_FALSE(device_->activityActive(symbos::ActivityKind::VoiceCall));
}

TEST_F(DeviceFixture, FlashSurvivesRebootAndBatteryPull) {
    device_->powerOn();
    device_->flash().appendLine("data", "precious");
    device_->requestShutdown(ShutdownKind::UserOff);
    device_->powerOn();
    EXPECT_EQ(device_->flash().lastLine("data"), "precious");
    device_->abruptPowerOff();
    device_->powerOn();
    EXPECT_EQ(device_->flash().lastLine("data"), "precious");
}

// -- User model (statistical behaviour over a longer horizon) ---------------------------

TEST_F(DeviceFixture, LowBatteryShutsDownAndRecovers) {
    device_->powerOn();
    runFor(sim::Duration::hours(1));
    // Drain the battery to the threshold; the System Agent's low-battery
    // hook asks the device to shut down gracefully.
    device_->systemAgent().setBattery(2, false);
    EXPECT_EQ(device_->state(), PhoneDevice::PowerState::Off);
    EXPECT_EQ(device_->groundTruth().countOf(TruthKind::LowBatteryShutdown), 1u);
    // The user charges it; the phone comes back within hours.
    runFor(sim::Duration::hours(12));
    EXPECT_TRUE(device_->isOn());
    EXPECT_GT(device_->systemAgent().batteryPercent(), 50);
}

TEST_F(DeviceFixture, BatteryDrainsWhileOn) {
    device_->powerOn();
    const int start = device_->systemAgent().batteryPercent();
    runFor(sim::Duration::hours(6));
    // Either it drained, or a charging window topped it up; both are valid,
    // but the level must stay in range and the device on.
    const int now = device_->systemAgent().batteryPercent();
    EXPECT_GE(now, 0);
    EXPECT_LE(now, 100);
    EXPECT_TRUE(device_->isOn());
    (void)start;
}

// A phone whose user is in a call whenever awake and never switches it
// off drains about 3 points a tick all day; on some evenings it runs flat
// before the charger comes out.  The battery's ticks are derived, so this
// pins what the scheduled 30-minute chain did (the instants and Log File
// below were taken from it): the low-battery shutdown happens inside the
// tick that crosses, and that tick runs after the events at its instant
// armed more than 30 minutes before it and before those armed later.
TEST(Battery, LowBatteryShutdownsLandOnTheCrossingTick) {
    sim::Simulator simulator;
    PhoneDevice::Config config;
    config.name = "heavy";
    config.seed = 4;
    config.profile.callsPerDay = 2'000.0;
    config.profile.nightOffProb = 0.0;
    config.profile.daytimeOffPerDay = 0.0;
    config.profile.quickCyclesPerDay = 0.0;
    // Declared first so it outlives the device, whose teardown runs the
    // logger's kernel hooks.
    std::unique_ptr<logger::FailureLogger> failureLogger;
    auto device = std::make_unique<PhoneDevice>(simulator, config);
    failureLogger = std::make_unique<logger::FailureLogger>(*device);

    // Two probes at the first shutdown's instant, armed 31 and 29 minutes
    // before it.
    const auto crossing = sim::TimePoint::fromMicros(9'325'800'000'000);
    std::optional<bool> onForEarlierProbe;
    std::optional<bool> onForLaterProbe;
    for (auto [lead, seen] : {std::pair{sim::Duration::minutes(31), &onForEarlierProbe},
                              std::pair{sim::Duration::minutes(29), &onForLaterProbe}}) {
        simulator.scheduleAt(
            crossing - lead, "test.probe", [&simulator, &device, &crossing, seen]() {
                simulator.scheduleAt(crossing, "test.probe",
                                     [&device, seen]() { *seen = device->isOn(); });
            });
    }
    device->powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(120));

    std::vector<std::int64_t> shutdowns;
    for (const TruthEvent& event :
         device->groundTruth().eventsOf(TruthKind::LowBatteryShutdown)) {
        shutdowns.push_back(event.time.micros());
    }
    EXPECT_EQ(shutdowns,
              (std::vector<std::int64_t>{9'325'800'000'000, 9'842'292'828'594}));
    EXPECT_EQ(obs::fnv1a64(failureLogger->logFileContent()), 0x196778a9aa0522a6ULL);
    EXPECT_EQ(onForEarlierProbe, std::optional{true});
    EXPECT_EQ(onForLaterProbe, std::optional{false});
}

TEST(UserModel, GeneratesDiurnalActivity) {
    sim::Simulator simulator;
    PhoneDevice::Config config;
    config.name = "busy";
    config.seed = 21;
    config.profile.nightOffProb = 0.0;
    config.profile.daytimeOffPerDay = 0.0;
    config.profile.quickCyclesPerDay = 0.0;
    PhoneDevice device{simulator, config};
    std::size_t callStarts = 0;
    device.addActivityHook([&](symbos::ActivityKind kind, bool started) {
        if (kind != symbos::ActivityKind::VoiceCall || !started) return;
        ++callStarts;
        // Diurnal: calls only between wake and sleep hours.
        const auto hour = simulator.now().timeOfDay().totalSeconds() / 3'600;
        EXPECT_GE(hour, kWakeHour);
        EXPECT_LT(hour, kSleepHour);
    });
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(14));

    // ~6 calls/day over 14 days, Poisson: expect the right order.
    EXPECT_GT(callStarts, 40u);
    EXPECT_LT(callStarts, 160u);
}

TEST(UserModel, NightOffProducesLongShutdowns) {
    sim::Simulator simulator;
    PhoneDevice::Config config;
    config.name = "sleeper";
    config.seed = 22;
    config.profile.nightOffProb = 1.0;  // turns it off every night
    config.profile.daytimeOffPerDay = 0.0;
    config.profile.quickCyclesPerDay = 0.0;
    PhoneDevice device{simulator, config};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(10));
    const auto nights = device.groundTruth().countOf(TruthKind::NightShutdown);
    EXPECT_GE(nights, 8u);
    EXPECT_GE(device.bootCount(), nights);  // phone came back each morning
}

TEST(UserModel, LoggerTogglesFireWhenConfigured) {
    sim::Simulator simulator;
    PhoneDevice::Config config;
    config.name = "fiddler";
    config.seed = 23;
    config.profile.loggerTogglesPerMonth = 30.0;  // ~daily
    config.profile.nightOffProb = 0.0;
    PhoneDevice device{simulator, config};
    int toggles = 0;
    device.setLoggerToggleHook([&](bool) { ++toggles; });
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(10));
    EXPECT_GE(toggles, 4);
    EXPECT_GE(device.groundTruth().countOf(TruthKind::LoggerManualOff), 2u);
}

}  // namespace
}  // namespace symfail::phone
