// The simulated smart phone.
//
// A PhoneDevice ties together the Symbian kernel model, the system servers
// the logger reads from, persistent flash storage, a battery, and the user
// behaviour model.  It implements the device-level failure semantics the
// paper measures:
//
//   * freeze  — the device stops responding; nothing more is written to
//     flash (the heartbeat's last record stays ALIVE); the user eventually
//     notices and pulls the battery;
//   * self-shutdown — the kernel reboots the device after a core-app or
//     kernel-critical panic (or a spontaneous fault); shutdown hooks run
//     first, so the heartbeat records REBOOT; the phone restarts on its
//     own within a few minutes (median ≈80 s in the paper's data);
//   * user shutdowns — deliberate power-offs (night, meetings, quick
//     cycles) also record REBOOT; only the off-duration distinguishes
//     them from self-shutdowns, which is exactly the discrimination
//     problem the paper's Figure 2 addresses;
//   * low-battery shutdowns — record LOWBT.
//
// The battery drains in a tick every 30 minutes while the phone is on.
// The device keeps the next tick's time as data and runs the due ticks at
// the next sync (syncBattery), the way the logger derives its heartbeat:
// before anything reads the battery or changes what a tick reads.  One
// real `phone.battery` event guards the tick that could take the level
// low, so the low-battery shutdown happens inside the tick that crosses,
// at the instant and in the same-instant order of a scheduled 30-minute
// chain.  The device brings the logger's derived heartbeat up to date
// (syncLogger) only where the phone stops: at a freeze and at every power
// loss; the fault planes and the beats file's read hook sync it where a
// beat can be read.  docs/METHODOLOGY.md §1 gives the rules.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "phone/apps.hpp"
#include "phone/flash.hpp"
#include "phone/ground_truth.hpp"
#include "phone/radio.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"
#include "symbos/kernel.hpp"
#include "symbos/sysservers.hpp"

namespace symfail::phone {

class UserModel;

/// Graceful shutdown categories (the abrupt battery pull is not one: it
/// runs no shutdown hooks, which is how freezes stay detectable).
enum class ShutdownKind : std::uint8_t {
    UserOff,     ///< Deliberate daytime power-off.
    NightOff,    ///< Overnight power-off.
    LowBattery,  ///< Battery exhausted.
    SelfReboot,  ///< Kernel-initiated reboot (self-shutdown).
};

[[nodiscard]] std::string_view toString(ShutdownKind k);

/// The device's notion of wall-clock time.  Software on the phone (the
/// logger stamping records) reads time through this; without one attached
/// the device clock is the simulation clock.  The osfault clock plane
/// implements it to model skew, jumps, and monotonicity violations — a
/// *measurement* distortion: the simulation itself always runs on true
/// time, only the timestamps written to flash drift.
class DeviceClock {
public:
    virtual ~DeviceClock() = default;
    /// Maps true simulation time to what the device's RTC reports.
    /// Non-const: implementations track reads to detect monotonicity
    /// violations.
    virtual sim::TimePoint read(sim::TimePoint trueNow) = 0;
};

/// Per-phone user behaviour: the rates the fleet draws for each phone
/// around a typical member of the study's population.  Durations
/// (user.cpp) and waking hours (below) are the same for every phone.
struct UserProfile {
    double callsPerDay = 6.0;
    double smsPerDay = 8.0;
    double cameraPerDay = 0.5;
    double bluetoothPerDay = 0.3;
    double webPerDay = 1.0;
    double appSessionsPerDay = 10.0;

    double nightOffProb = 0.28;
    double daytimeOffPerDay = 0.12;
    double quickCyclesPerDay = 0.04;

    /// How long until the user notices a frozen phone and pulls the
    /// battery (clamped into waking hours).
    sim::Duration freezeNoticeMedian = sim::Duration::minutes(12);

    /// Probability that the Telephone application registers a foreground
    /// UI session during a voice call.  The paper's Table 4 lists
    /// Telephone among running applications far less often than calls
    /// occur — the phone app is a resident system component and mostly
    /// stays out of the application registry.
    double telephoneForegroundProb = 0.15;

    /// MAOFF events: the user turning the logger application off.
    double loggerTogglesPerMonth = 0.15;
};

/// The user's waking hours: activity happens in [kWakeHour, kSleepHour).
inline constexpr int kWakeHour = 8;
inline constexpr int kSleepHour = 23;

/// The device.
class PhoneDevice {
public:
    struct Config {
        std::string name = "phone-0";
        std::string symbianVersion = "8.0";
        UserProfile profile{};
        std::uint64_t seed = 1;
    };

    enum class PowerState : std::uint8_t { Off, On, Frozen };

    PhoneDevice(sim::Simulator& simulator, Config config);
    ~PhoneDevice();
    PhoneDevice(const PhoneDevice&) = delete;
    PhoneDevice& operator=(const PhoneDevice&) = delete;

    // -- Identity & components ---------------------------------------------

    [[nodiscard]] const std::string& name() const { return config_.name; }
    [[nodiscard]] const std::string& symbianVersion() const {
        return config_.symbianVersion;
    }
    [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
    [[nodiscard]] symbos::Kernel& kernel() { return *kernel_; }
    [[nodiscard]] symbos::AppArchServer& appArch() { return appArch_; }
    [[nodiscard]] symbos::SystemAgentServer& systemAgent() { return systemAgent_; }
    [[nodiscard]] FlashStore& flash() { return flash_; }
    [[nodiscard]] RadioModem& radio() { return radio_; }
    [[nodiscard]] GroundTruth& groundTruth() { return truth_; }
    [[nodiscard]] const UserProfile& profile() const { return config_.profile; }
    /// Trace track carrying this phone's events (0 when no sink attached —
    /// which aliases the "sim" track, harmless since nothing is emitted).
    [[nodiscard]] std::uint32_t traceTrack() const { return traceTrack_; }

    /// Attaches a device clock (nullptr detaches).  Not owned.
    void setClock(DeviceClock* clock) { clock_ = clock; }
    [[nodiscard]] bool clockAttached() const { return clock_ != nullptr; }
    /// What the device's RTC reports at `at`; identical to the simulation
    /// clock unless a DeviceClock is attached.  The logger stamps a tick it
    /// writes after its time with this.
    [[nodiscard]] sim::TimePoint clockAt(sim::TimePoint at) {
        return clock_ != nullptr ? clock_->read(at) : at;
    }
    /// What the device's RTC currently reports.
    [[nodiscard]] sim::TimePoint clockNow() { return clockAt(simulator_->now()); }

    // -- Power ---------------------------------------------------------------

    [[nodiscard]] PowerState state() const { return state_; }
    [[nodiscard]] bool isOn() const { return state_ == PowerState::On; }

    /// Boots the device (no-op unless Off).
    void powerOn();

    /// Graceful shutdown: hooks run (the logger records its last-event
    /// marker), processes die, device is Off.  Restart is the caller's or
    /// user model's business except for SelfReboot, which self-restarts.
    void requestShutdown(ShutdownKind kind, std::string detail = {});

    /// Abrupt power loss (battery pull): no hooks, straight to Off.
    void abruptPowerOff();

    /// Device stops responding.  The user model schedules the battery
    /// pull + restart.
    void freeze(std::string cause);

    /// Kernel- or fault-initiated reboot: graceful SelfReboot shutdown,
    /// then an automatic restart after the self-reboot off-time.
    void selfReboot(std::string cause);

    // -- Applications ---------------------------------------------------------

    /// Opens an application session (creates its process, registers it
    /// with the Application Architecture Server) and schedules its close.
    /// Returns 0 if the device is not On or the app is already running.
    symbos::ProcessId startAppSession(std::string_view app, sim::Duration duration);
    /// Closes a running app session now (no-op if absent).
    void closeAppSession(std::string_view app);
    /// Pid of a running application or resident process; 0 if absent.
    [[nodiscard]] symbos::ProcessId pidOf(std::string_view processName) const;
    /// Names of running *user* applications, as a PANIC record lists them
    /// (what the paper's Running Applications Detector gathered).
    [[nodiscard]] std::vector<std::string> runningUserApps() const;

    // -- Activities ------------------------------------------------------------

    /// A value failure: the device delivers wrong output (volume, charge
    /// indicator, …) without crashing.  Recorded in the ground truth and
    /// surfaced to output-failure hooks — the only way the extended logger
    /// can learn about it is through the user (the paper's future work).
    void outputFailureOccurred(std::string symptom);

    /// Marks an activity window; used by the user model.  Registered
    /// activity hooks (the fault injector's trigger source) fire on start.
    void activityBegin(symbos::ActivityKind kind);
    void activityEnd(symbos::ActivityKind kind);
    [[nodiscard]] bool activityActive(symbos::ActivityKind kind) const;

    // -- Hooks -------------------------------------------------------------------

    using BootHook = std::function<void()>;
    using ShutdownHook = std::function<void(ShutdownKind)>;
    using PowerDownHook = std::function<void()>;
    using ActivityHook = std::function<void(symbos::ActivityKind, bool started)>;
    using OutputFailureHook = std::function<void(const std::string& symptom)>;
    using LoggerToggleHook = std::function<void(bool enabled)>;
    using LoggerSyncHook = std::function<void()>;

    void addBootHook(BootHook hook) { bootHooks_.push_back(std::move(hook)); }
    void addShutdownHook(ShutdownHook hook) { shutdownHooks_.push_back(std::move(hook)); }
    /// Runs on *every* power loss (graceful or battery pull), before the
    /// kernel tears processes down: components free their per-boot objects
    /// here (RAM contents are lost either way).
    void addPowerDownHook(PowerDownHook hook) {
        powerDownHooks_.push_back(std::move(hook));
    }
    void addActivityHook(ActivityHook hook) { activityHooks_.push_back(std::move(hook)); }
    void addOutputFailureHook(OutputFailureHook hook) {
        outputFailureHooks_.push_back(std::move(hook));
    }
    void setLoggerToggleHook(LoggerToggleHook hook) { loggerToggle_ = std::move(hook); }
    /// Runs before the power state changes, the one change the logger's
    /// heartbeat reads.  A logger that derives its ticks instead of
    /// scheduling them writes the ones due here.
    void setLoggerSyncHook(LoggerSyncHook hook) { loggerSync_ = std::move(hook); }
    /// Runs the battery's due ticks, then the logger sync hook.  The device
    /// calls it before a freeze and every power loss; the fault planes
    /// call it before they act on state a tick reads or writes: the flash
    /// store, the clock and the logger daemon's heap.
    void syncLogger() {
        syncBattery();
        if (loggerSync_) loggerSync_();
    }
    /// Runs every battery tick due: those up to and including now.  Inside
    /// an event at t the tick at t has run, as a scheduled tick armed 30
    /// minutes earlier would have.  A tick that could cross the low mark
    /// runs in its own guard event, never here after its instant.
    void syncBattery();
    /// Invoked by the user model for MAOFF events; no-op without a hook.
    void toggleLogger(bool enabled);

    // -- Statistics ---------------------------------------------------------------

    [[nodiscard]] std::uint64_t bootCount() const { return bootCount_; }

    /// Approximate heap footprint of the device's object graph (kernel,
    /// flash contents, ground-truth journal, session/hook containers).
    /// Derived from simulated state only, so identical campaigns yield
    /// identical values; read by the resource accountant.
    [[nodiscard]] std::size_t approxMemoryBytes() const;

private:
    friend class UserModel;

    void createResidentProcesses();
    void tearDown(bool graceful, ShutdownKind kind);
    /// One battery tick at `at`: drain or charge, then report the level.
    void batteryTick(sim::TimePoint at);
    /// Schedules the real battery event at the last tick that cannot take
    /// the level low, or at the next tick if that one can.
    void armBatteryGuard();

    sim::Simulator* simulator_;
    Config config_;
    sim::Rng rng_;
    std::unique_ptr<symbos::Kernel> kernel_;
    symbos::AppArchServer appArch_;
    symbos::SystemAgentServer systemAgent_;
    FlashStore flash_;
    RadioModem radio_;
    GroundTruth truth_;
    std::unique_ptr<UserModel> user_;
    DeviceClock* clock_{nullptr};

    PowerState state_{PowerState::Off};
    std::uint32_t traceTrack_{0};
    std::uint64_t bootEpoch_{0};  ///< Increments each boot; stale events check it.
    std::uint64_t bootCount_{0};
    sim::TimePoint lastBootAt_{};

    struct AppSession {
        symbos::ProcessId pid{0};
        sim::EventId closeEvent{};
    };
    std::map<std::string, AppSession, std::less<>> sessions_;
    std::map<std::string, symbos::ProcessId, std::less<>> residents_;
    std::map<symbos::ActivityKind, int> activeActivities_;

    std::vector<BootHook> bootHooks_;
    std::vector<ShutdownHook> shutdownHooks_;
    std::vector<PowerDownHook> powerDownHooks_;
    std::vector<ActivityHook> activityHooks_;
    std::vector<OutputFailureHook> outputFailureHooks_;
    LoggerToggleHook loggerToggle_;
    LoggerSyncHook loggerSync_;

    double batteryPercent_{100.0};
    bool charging_{false};
    /// The next battery tick not yet run; empty while the phone is not on.
    std::optional<sim::TimePoint> nextBatteryTick_;
};

}  // namespace symfail::phone
