#include "phone/device.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "phone/user.hpp"

namespace symfail::phone {

/// Self-reboot off-time (lognormal median, sigma); the paper's data peaks
/// ~80 s (the lognormal's histogram mode is median * exp(-sigma^2)).
constexpr sim::Duration kSelfRebootMedian = sim::Duration::seconds(90);
constexpr double kSelfRebootSigma = 0.35;

/// The battery ticks every 30 minutes while the phone is on.
constexpr sim::Duration kBatteryTick = sim::Duration::minutes(30);
/// The most one tick drains: idle, a voice call and an open application.
constexpr double kMaxTickDrain = 0.9 + 2.0 + 0.4;
/// The level below which the System Agent, which truncates to a whole
/// percent, reports the battery low.
constexpr double kLowLevel = symbos::SystemAgentServer::kLowBatteryPercent + 1.0;

std::string_view toString(ShutdownKind k) {
    switch (k) {
        case ShutdownKind::UserOff: return "user-off";
        case ShutdownKind::NightOff: return "night-off";
        case ShutdownKind::LowBattery: return "low-battery";
        case ShutdownKind::SelfReboot: return "self-reboot";
    }
    return "?";
}

PhoneDevice::PhoneDevice(sim::Simulator& simulator, Config config)
    : simulator_{&simulator},
      config_{std::move(config)},
      rng_{config_.seed},
      kernel_{std::make_unique<symbos::Kernel>(simulator)} {
    if (auto* trace = simulator_->traceSink()) {
        traceTrack_ = trace->registerTrack(config_.name);
        kernel_->setTraceTrack(traceTrack_);
    }
    user_ = std::make_unique<UserModel>(*this, rng_.fork());

    // Kernel recovery policy lands here: core-app/kernel-critical panics
    // reboot the device; a dead UI server freezes it.
    kernel_->setActionHandler([this](symbos::KernelAction action,
                                     const symbos::PanicEvent& event) {
        if (action == symbos::KernelAction::RebootDevice) {
            selfReboot("panic " + toString(event.id) + " in " + event.processName);
        } else {
            freeze("panic " + toString(event.id) + " in " + event.processName);
        }
    });

    // Application processes that die (panic or kill) leave the running list.
    kernel_->addTerminationHook([this](symbos::ProcessId pid, const std::string& name,
                                       symbos::TerminationReason reason) {
        (void)reason;
        const auto it = sessions_.find(name);
        if (it != sessions_.end() && it->second.pid == pid) {
            syncBattery();
            if (it->second.closeEvent.valid()) simulator_->cancel(it->second.closeEvent);
            sessions_.erase(it);
            appArch_.appStopped(name);
        }
    });

    systemAgent_.addLowBatteryHook([this]() {
        if (!isOn()) return;
        requestShutdown(ShutdownKind::LowBattery);
        // The user finds a charger; the phone comes back with a healthy
        // battery a couple of hours later.
        const auto chargeDelay = rng_.lognormalDuration(sim::Duration::hours(2), 0.5);
        simulator_->scheduleAfter(chargeDelay, "phone.power", [this]() {
            batteryPercent_ = 80.0;
            charging_ = false;
            powerOn();
        });
    });

    user_->start();
}

PhoneDevice::~PhoneDevice() {
    // Companion components (logger, injector) may already be gone, and
    // each cleans up its own per-boot objects in its own destructor — so
    // never call back into them from here.
    shutdownHooks_.clear();
    powerDownHooks_.clear();
    bootHooks_.clear();
    activityHooks_.clear();
    outputFailureHooks_.clear();
    loggerToggle_ = nullptr;
    loggerSync_ = nullptr;
    flash_.setReadHook(nullptr);
    // The battery stops with the simulation: no tick runs in the teardown.
    nextBatteryTick_.reset();
    if (state_ != PowerState::Off) {
        tearDown(false, ShutdownKind::UserOff);
    }
}

void PhoneDevice::createResidentProcesses() {
    using symbos::ProcessKind;
    residents_.clear();
    residents_.emplace(std::string{kProcWindowServer},
                       kernel_->createProcess(std::string{kProcWindowServer},
                                              ProcessKind::UiServer));
    residents_.emplace(std::string{kProcFileServer},
                       kernel_->createProcess(std::string{kProcFileServer},
                                              ProcessKind::KernelCritical));
    residents_.emplace(std::string{kProcSystemAgent},
                       kernel_->createProcess(std::string{kProcSystemAgent},
                                              ProcessKind::SystemServer));
    residents_.emplace(std::string{kAppTelephone},
                       kernel_->createProcess(std::string{kAppTelephone},
                                              ProcessKind::CoreApp));
    residents_.emplace(std::string{kProcMsgServer},
                       kernel_->createProcess(std::string{kProcMsgServer},
                                              ProcessKind::CoreApp));
}

void PhoneDevice::powerOn() {
    if (state_ != PowerState::Off) return;
    state_ = PowerState::On;
    ++bootEpoch_;
    ++bootCount_;
    lastBootAt_ = simulator_->now();
    nextBatteryTick_ = lastBootAt_ + kBatteryTick;
    createResidentProcesses();
    systemAgent_.setBattery(static_cast<int>(batteryPercent_), charging_);
    if (auto* trace = simulator_->traceSink()) {
        const obs::TraceArg args[] = {{"boot", bootCount_}, {"battery", batteryPercent_}};
        trace->instant(traceTrack_, "phone", "boot", simulator_->now(), args);
    }
    truth_.record(simulator_->now(), TruthKind::Boot);
    for (const auto& hook : bootHooks_) hook();
    user_->deviceBooted();
    armBatteryGuard();
}

void PhoneDevice::requestShutdown(ShutdownKind kind, std::string detail) {
    if (state_ != PowerState::On) return;
    TruthKind truthKind{};
    switch (kind) {
        case ShutdownKind::UserOff: truthKind = TruthKind::UserShutdown; break;
        case ShutdownKind::NightOff: truthKind = TruthKind::NightShutdown; break;
        case ShutdownKind::LowBattery: truthKind = TruthKind::LowBatteryShutdown; break;
        case ShutdownKind::SelfReboot: truthKind = TruthKind::SelfShutdown; break;
    }
    if (auto* trace = simulator_->traceSink()) {
        const obs::TraceArg args[] = {{"kind", toString(kind)}, {"detail", detail}};
        trace->instant(traceTrack_, "phone", "shutdown", simulator_->now(), args);
    }
    truth_.record(simulator_->now(), truthKind);
    tearDown(true, kind);
}

void PhoneDevice::abruptPowerOff() {
    if (state_ == PowerState::Off) return;
    tearDown(false, ShutdownKind::UserOff);
}

void PhoneDevice::freeze(std::string cause) {
    if (state_ != PowerState::On) return;
    syncLogger();
    if (auto* trace = simulator_->traceSink()) {
        const obs::TraceArg args[] = {{"cause", cause}};
        trace->instant(traceTrack_, "phone", "freeze", simulator_->now(), args);
    }
    truth_.record(simulator_->now(), TruthKind::Freeze);
    nextBatteryTick_.reset();
    state_ = PowerState::Frozen;
    ++bootEpoch_;  // invalidates all in-flight behaviour
    kernel_->setSuspended(true);
    user_->deviceFroze();
}

void PhoneDevice::selfReboot(std::string cause) {
    if (state_ != PowerState::On) return;
    requestShutdown(ShutdownKind::SelfReboot, std::move(cause));
    const auto offTime = rng_.lognormalDuration(kSelfRebootMedian, kSelfRebootSigma);
    simulator_->scheduleAfter(offTime, "phone.reboot", [this]() { powerOn(); });
}

void PhoneDevice::tearDown(bool graceful, ShutdownKind kind) {
    assert(state_ != PowerState::Off);
    syncLogger();
    nextBatteryTick_.reset();
    if (graceful) {
        // Symbian lets applications complete their tasks before the power
        // goes: the logger's heartbeat uses this window to write its
        // REBOOT/LOWBT marker.
        for (const auto& hook : shutdownHooks_) hook(kind);
    }
    // RAM contents are gone either way; components free their per-boot
    // objects here (registered by the logger, the fault injector, …).
    for (const auto& hook : powerDownHooks_) hook();
    for (auto& [name, session] : sessions_) {
        if (session.closeEvent.valid()) simulator_->cancel(session.closeEvent);
    }
    sessions_.clear();
    activeActivities_.clear();
    kernel_->shutdownAll();
    kernel_->setSuspended(false);
    appArch_.reset();
    if (auto* trace = simulator_->traceSink()) {
        const obs::TraceArg args[] = {{"kind", toString(kind)}, {"graceful", graceful}};
        trace->span(traceTrack_, "phone", "powered-on", lastBootAt_,
                    simulator_->now() - lastBootAt_, args);
    }
    state_ = PowerState::Off;
    ++bootEpoch_;
}

symbos::ProcessId PhoneDevice::startAppSession(std::string_view app,
                                               sim::Duration duration) {
    if (!isOn()) return 0;
    if (sessions_.find(app) != sessions_.end()) return 0;
    syncBattery();
    const AppInfo& info = appInfo(app);
    const auto pid = kernel_->createProcess(std::string{app}, info.kind);
    AppSession session;
    session.pid = pid;
    const std::string appName{app};
    const auto epoch = bootEpoch_;
    session.closeEvent = simulator_->scheduleAfter(duration, "phone.app",
                                                   [this, appName, epoch]() {
        if (epoch != bootEpoch_) return;
        // This event is firing, so it is no longer pending: forget it, or
        // closeAppSession would scan the whole queue trying to cancel it.
        if (const auto it = sessions_.find(appName); it != sessions_.end()) {
            it->second.closeEvent = {};
        }
        closeAppSession(appName);
    });
    sessions_.emplace(appName, session);
    appArch_.appStarted(appName);
    return pid;
}

void PhoneDevice::closeAppSession(std::string_view app) {
    const auto it = sessions_.find(app);
    if (it == sessions_.end()) return;
    syncBattery();
    const auto pid = it->second.pid;
    if (it->second.closeEvent.valid()) simulator_->cancel(it->second.closeEvent);
    sessions_.erase(it);
    appArch_.appStopped(std::string{app});
    kernel_->killProcess(pid, symbos::TerminationReason::Killed);
}

symbos::ProcessId PhoneDevice::pidOf(std::string_view processName) const {
    if (const auto it = sessions_.find(processName); it != sessions_.end()) {
        return it->second.pid;
    }
    if (const auto it = residents_.find(processName); it != residents_.end()) {
        return kernel_->alive(it->second) ? it->second : 0;
    }
    return 0;
}

std::vector<std::string> PhoneDevice::runningUserApps() const {
    return appArch_.running();
}

void PhoneDevice::outputFailureOccurred(std::string symptom) {
    if (!isOn()) return;
    if (auto* trace = simulator_->traceSink()) {
        const obs::TraceArg args[] = {{"symptom", symptom}};
        trace->instant(traceTrack_, "phone", "output-failure", simulator_->now(), args);
    }
    truth_.record(simulator_->now(), TruthKind::OutputFailureInjected);
    for (const auto& hook : outputFailureHooks_) hook(symptom);
}

void PhoneDevice::activityBegin(symbos::ActivityKind kind) {
    if (!isOn()) return;
    syncBattery();
    ++activeActivities_[kind];
    // The core app handling the activity may surface in the running list:
    // the Messages UI opens for every text, while the Telephone app only
    // occasionally registers a foreground session (see UserProfile).
    if (kind == symbos::ActivityKind::VoiceCall) {
        if (rng_.bernoulli(config_.profile.telephoneForegroundProb)) {
            appArch_.appStarted(std::string{kAppTelephone});
        }
    } else if (kind == symbos::ActivityKind::TextMessage) {
        appArch_.appStarted(std::string{kAppMessages});
    }
    for (const auto& hook : activityHooks_) hook(kind, true);
}

void PhoneDevice::activityEnd(symbos::ActivityKind kind) {
    if (!isOn()) return;
    auto it = activeActivities_.find(kind);
    if (it == activeActivities_.end() || it->second == 0) return;
    syncBattery();
    if (--it->second == 0) activeActivities_.erase(it);
    if (!activityActive(kind)) {
        if (kind == symbos::ActivityKind::VoiceCall) {
            appArch_.appStopped(std::string{kAppTelephone});
        } else if (kind == symbos::ActivityKind::TextMessage) {
            appArch_.appStopped(std::string{kAppMessages});
        }
    }
    for (const auto& hook : activityHooks_) hook(kind, false);
}

bool PhoneDevice::activityActive(symbos::ActivityKind kind) const {
    const auto it = activeActivities_.find(kind);
    return it != activeActivities_.end() && it->second > 0;
}

void PhoneDevice::toggleLogger(bool enabled) {
    truth_.record(simulator_->now(),
                  enabled ? TruthKind::LoggerManualOn : TruthKind::LoggerManualOff);
    if (loggerToggle_) loggerToggle_(enabled);
}

void PhoneDevice::syncBattery() {
    // A tick that crosses the low mark shuts the phone down, which syncs
    // again and ends the run; the cadence has moved past it by then.
    while (nextBatteryTick_ && *nextBatteryTick_ <= simulator_->now()) {
        const sim::TimePoint at = *nextBatteryTick_;
        *nextBatteryTick_ += kBatteryTick;
        batteryTick(at);
    }
}

void PhoneDevice::armBatteryGuard() {
    if (!nextBatteryTick_) return;  // a boot hook shut the phone down again
    // The level falls by at most kMaxTickDrain a tick (charging only adds),
    // so the first `safe` ticks cannot cross the low mark; the margin
    // covers the rounding of the level's running sum.
    constexpr double kRounding = 1e-6;
    const double headroom = batteryPercent_ - kLowLevel - kRounding;
    const auto safe =
        headroom > 0.0 ? static_cast<std::int64_t>(headroom / kMaxTickDrain) : 0;
    // The guard runs the last safe tick and arms the next one from there:
    // the tick that can cross is armed 30 minutes before its instant, as
    // the scheduled chain armed every tick, so it runs after the events at
    // its instant armed earlier and before those armed later.
    const sim::TimePoint at =
        *nextBatteryTick_ + kBatteryTick * std::max<std::int64_t>(safe - 1, 0);
    const auto epoch = bootEpoch_;
    simulator_->scheduleAt(at, "phone.battery", [this, epoch]() {
        if (epoch != bootEpoch_ || !isOn()) return;
        syncBattery();
        if (epoch == bootEpoch_ && isOn()) armBatteryGuard();
    });
}

void PhoneDevice::batteryTick(sim::TimePoint at) {
    // Idle drain empties a full battery in about two days; calls and media
    // use cost extra.
    double drain = 0.9;
    if (activityActive(symbos::ActivityKind::VoiceCall)) drain += 2.0;
    if (!sessions_.empty()) drain += 0.4;

    if (charging_) {
        batteryPercent_ += 15.0;
        if (batteryPercent_ >= 100.0) {
            batteryPercent_ = 100.0;
            charging_ = false;
        }
    } else {
        batteryPercent_ -= drain;
        if (batteryPercent_ < 0.0) batteryPercent_ = 0.0;
        // Charging habits: plug in when low, or overnight.
        const auto hour = at.timeOfDay().totalSeconds() / 3600;
        const bool nightWindow = hour >= kSleepHour - 1 || hour < kWakeHour;
        if (batteryPercent_ < 25.0 && rng_.bernoulli(0.5)) {
            charging_ = true;
        } else if (nightWindow && batteryPercent_ < 90.0 && rng_.bernoulli(0.25)) {
            charging_ = true;
        }
    }
    [[maybe_unused]] const bool wasLow = systemAgent_.batteryLow();
    systemAgent_.setBattery(static_cast<int>(batteryPercent_), charging_);
    // Only the guard's tick, run at its own instant, may take the level low.
    assert(wasLow || !systemAgent_.batteryLow() || at == simulator_->now());
    if (auto* trace = simulator_->traceSink()) {
        trace->counter(traceTrack_, "battery", at, batteryPercent_);
    }
}

std::size_t PhoneDevice::approxMemoryBytes() const {
    constexpr std::size_t mapNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    total += kernel_->approxMemoryBytes();
    total += flash_.approxMemoryBytes();
    total += truth_.approxMemoryBytes();
    for (const auto& [name, session] : sessions_) {
        total += name.size() + sizeof(AppSession) + sizeof(std::string) + mapNode;
    }
    for (const auto& [name, pid] : residents_) {
        total += name.size() + sizeof(symbos::ProcessId) + sizeof(std::string) + mapNode;
    }
    total += activeActivities_.size() *
             (sizeof(std::pair<symbos::ActivityKind, int>) + mapNode);
    total += bootHooks_.capacity() * sizeof(BootHook);
    total += shutdownHooks_.capacity() * sizeof(ShutdownHook);
    total += powerDownHooks_.capacity() * sizeof(PowerDownHook);
    total += activityHooks_.capacity() * sizeof(ActivityHook);
    total += outputFailureHooks_.capacity() * sizeof(OutputFailureHook);
    if (user_ != nullptr) total += sizeof(UserModel);
    return total;
}

}  // namespace symfail::phone
