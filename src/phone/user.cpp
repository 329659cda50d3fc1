#include "phone/user.hpp"

#include <array>
#include <string>
#include <vector>

#include "phone/device.hpp"

namespace symfail::phone {
namespace {

constexpr double kSecondsPerDay = 86'400.0;
constexpr double kActiveHours = kSleepHour - kWakeHour;

// Durations drawn per event (lognormal median, sigma).
constexpr sim::Duration kCallMedian = sim::Duration::seconds(90);
constexpr double kCallSigma = 0.8;
constexpr sim::Duration kSmsHandlingMedian = sim::Duration::seconds(30);
constexpr sim::Duration kNightOffMedian = sim::Duration::seconds(30'000);
constexpr double kNightOffSigma = 0.25;
constexpr sim::Duration kDaytimeOffMedian = sim::Duration::minutes(40);
constexpr double kDaytimeOffSigma = 0.7;
constexpr sim::Duration kQuickCycleMedian = sim::Duration::minutes(10);
constexpr double kQuickCycleSigma = 0.6;
constexpr double kFreezeNoticeSigma = 0.9;
constexpr sim::Duration kBatteryPullOffMedian = sim::Duration::seconds(45);
constexpr double kBatteryPullOffSigma = 0.4;
constexpr sim::Duration kLoggerOffMedian = sim::Duration::hours(5);

/// Fraction of closed app sessions that linger in the running list
/// (users leave applications open).
constexpr double kAppLingerProb = 0.35;

/// Converts an events-per-day rate into a mean gap in active seconds.
double activeGapSeconds(sim::Rng& rng, double perDay, double activeHours) {
    const double perActiveSecond = perDay / (activeHours * 3'600.0);
    return rng.exponential(1.0 / perActiveSecond);
}

}  // namespace

UserModel::UserModel(PhoneDevice& device, sim::Rng rng)
    : device_{&device}, rng_{rng} {}

void UserModel::start() {
    // First night routine at tonight's sleep hour (plus up to 90 minutes of
    // jitter); repeats daily regardless of power state.
    const auto now = device_->simulator().now();
    auto tonight = sim::TimePoint::fromMicros(0) +
                   sim::Duration::days(now.dayIndex()) +
                   sim::Duration::hours(kSleepHour) +
                   sim::Duration::fromSecondsF(rng_.uniform(0.0, 5'400.0));
    if (tonight <= now) tonight += sim::Duration::days(1);
    scheduleNightRoutine(tonight);
    scheduleNextLoggerToggle();
}

void UserModel::deviceBooted() {
    scheduleNextCall();
    scheduleNextMessage();
    scheduleNextMediaSession();
    scheduleNextAppSession();
    scheduleNextDaytimeOff();
    scheduleNextQuickCycle();
}

bool UserModel::isNight(sim::TimePoint t) const {
    const auto hour = t.timeOfDay().totalSeconds() / 3'600;
    return hour < kWakeHour || hour >= kSleepHour;
}

sim::TimePoint UserModel::nextWake(sim::TimePoint t) const {
    auto wake = sim::TimePoint::fromMicros(0) + sim::Duration::days(t.dayIndex()) +
                sim::Duration::hours(kWakeHour);
    if (wake <= t) wake += sim::Duration::days(1);
    return wake;
}

sim::TimePoint UserModel::advanceActiveTime(sim::TimePoint from,
                                            double activeSeconds) const {
    auto t = from;
    double remaining = activeSeconds;
    for (int guard = 0; guard < 4'000; ++guard) {
        if (isNight(t)) {
            t = nextWake(t);
            continue;
        }
        const auto sleepToday = sim::TimePoint::fromMicros(0) +
                                sim::Duration::days(t.dayIndex()) +
                                sim::Duration::hours(kSleepHour);
        const double available = (sleepToday - t).asSecondsF();
        if (remaining <= available) {
            return t + sim::Duration::fromSecondsF(remaining);
        }
        remaining -= available;
        t = sleepToday;
    }
    // Astronomical gap (rate ~0): far future.
    return from + sim::Duration::fromSecondsF(activeSeconds + kSecondsPerDay);
}

void UserModel::scheduleOnChain(double activeGapSec, const std::function<void()>& body) {
    auto& simulator = device_->simulator();
    const auto at = advanceActiveTime(simulator.now(), activeGapSec);
    const auto epoch = device_->bootEpoch_;
    simulator.scheduleAt(at, "phone.user", [this, epoch, body]() {
        if (epoch != device_->bootEpoch_ || !device_->isOn()) return;
        body();
    });
}

// -- Calls --------------------------------------------------------------------

void UserModel::scheduleNextCall() {
    const auto& profile = device_->profile();
    if (profile.callsPerDay <= 0.0) return;
    scheduleOnChain(activeGapSeconds(rng_, profile.callsPerDay, kActiveHours),
                    [this]() { fireCall(); });
}

void UserModel::fireCall() {
    // The direction of a call or message is drawn and then unused: no
    // analysis reads it.  The draw keeps every later draw where it was.
    (void)rng_.bernoulli(0.5);
    device_->activityBegin(symbos::ActivityKind::VoiceCall);
    const auto duration = rng_.lognormalDuration(kCallMedian, kCallSigma);
    const auto epoch = device_->bootEpoch_;
    device_->simulator().scheduleAfter(duration, "phone.user", [this, epoch]() {
        if (epoch != device_->bootEpoch_) return;
        device_->activityEnd(symbos::ActivityKind::VoiceCall);
    });
    scheduleNextCall();
}

// -- Messages ------------------------------------------------------------------

void UserModel::scheduleNextMessage() {
    const auto& profile = device_->profile();
    if (profile.smsPerDay <= 0.0) return;
    scheduleOnChain(activeGapSeconds(rng_, profile.smsPerDay, kActiveHours),
                    [this]() { fireMessage(); });
}

void UserModel::fireMessage() {
    (void)rng_.bernoulli(0.45);  // the direction, as in fireCall
    device_->activityBegin(symbos::ActivityKind::TextMessage);
    const auto handling = rng_.lognormalDuration(kSmsHandlingMedian, 0.5);
    const auto epoch = device_->bootEpoch_;
    device_->simulator().scheduleAfter(handling, "phone.user", [this, epoch]() {
        if (epoch != device_->bootEpoch_) return;
        device_->activityEnd(symbos::ActivityKind::TextMessage);
    });
    scheduleNextMessage();
}

// -- Camera / Bluetooth / web sessions ----------------------------------------

void UserModel::scheduleNextMediaSession() {
    const auto& profile = device_->profile();
    const double totalPerDay =
        profile.cameraPerDay + profile.bluetoothPerDay + profile.webPerDay;
    if (totalPerDay <= 0.0) return;
    scheduleOnChain(activeGapSeconds(rng_, totalPerDay, kActiveHours), [this]() {
        const auto& p = device_->profile();
        const std::array<double, 3> weights{p.cameraPerDay, p.bluetoothPerDay,
                                            p.webPerDay};
        const auto pick = rng_.discrete(weights);
        symbos::ActivityKind kind{};
        std::string_view app;
        switch (pick) {
            case 0: kind = symbos::ActivityKind::Camera, app = kAppCamera; break;
            case 1: kind = symbos::ActivityKind::Bluetooth, app = kAppBtBrowser; break;
            default: kind = symbos::ActivityKind::WebBrowsing, app = kAppWebBrowser; break;
        }
        const auto duration =
            rng_.lognormalDuration(appInfo(app).sessionMedian, 0.6);
        device_->activityBegin(kind);
        device_->startAppSession(app, duration);
        const auto epoch = device_->bootEpoch_;
        device_->simulator().scheduleAfter(duration, "phone.user", [this, epoch, kind]() {
            if (epoch != device_->bootEpoch_) return;
            device_->activityEnd(kind);
        });
        scheduleNextMediaSession();
    });
}

// -- Generic app sessions -------------------------------------------------------

void UserModel::scheduleNextAppSession() {
    const auto& profile = device_->profile();
    if (profile.appSessionsPerDay <= 0.0) return;
    scheduleOnChain(activeGapSeconds(rng_, profile.appSessionsPerDay, kActiveHours),
                    [this]() { fireAppSession(); });
}

void UserModel::fireAppSession() {
    // Weighted pick over the launchable catalog apps, in catalog order.
    struct Launchable {
        std::vector<double> weights;
        std::vector<const AppInfo*> apps;
    };
    static const Launchable launchable = [] {
        Launchable table;
        for (const AppInfo& info : appCatalog()) {
            if (info.launchWeight > 0.0) {
                table.weights.push_back(info.launchWeight);
                table.apps.push_back(&info);
            }
        }
        return table;
    }();
    const AppInfo& info = *launchable.apps[rng_.discrete(launchable.weights)];
    auto duration = rng_.lognormalDuration(info.sessionMedian, 0.7);
    // Users leave apps open: some sessions linger long after active use.
    if (rng_.bernoulli(kAppLingerProb)) {
        duration = duration * 8;
    }
    device_->startAppSession(info.name, duration);
    scheduleNextAppSession();
}

// -- Power habits ---------------------------------------------------------------

void UserModel::scheduleNextDaytimeOff() {
    const auto& profile = device_->profile();
    if (profile.daytimeOffPerDay <= 0.0) return;
    scheduleOnChain(activeGapSeconds(rng_, profile.daytimeOffPerDay, kActiveHours),
                    [this]() {
                        device_->requestShutdown(ShutdownKind::UserOff, "meeting/cinema");
                        const auto off =
                            rng_.lognormalDuration(kDaytimeOffMedian, kDaytimeOffSigma);
                        device_->simulator().scheduleAfter(
                            off, "phone.user", [this]() { device_->powerOn(); });
                    });
}

void UserModel::scheduleNextQuickCycle() {
    const auto& profile = device_->profile();
    if (profile.quickCyclesPerDay <= 0.0) return;
    scheduleOnChain(activeGapSeconds(rng_, profile.quickCyclesPerDay, kActiveHours),
                    [this]() {
                        device_->requestShutdown(ShutdownKind::UserOff, "quick power cycle");
                        const auto off =
                            rng_.lognormalDuration(kQuickCycleMedian, kQuickCycleSigma);
                        device_->simulator().scheduleAfter(
                            off, "phone.user", [this]() { device_->powerOn(); });
                    });
}

void UserModel::scheduleNightRoutine(sim::TimePoint at) {
    device_->simulator().scheduleAt(at, "phone.user", [this, at]() {
        const auto& profile = device_->profile();
        if (device_->isOn() && rng_.bernoulli(profile.nightOffProb)) {
            device_->requestShutdown(ShutdownKind::NightOff, "night");
            const auto off = rng_.lognormalDuration(kNightOffMedian, kNightOffSigma);
            device_->simulator().scheduleAfter(off, "phone.user", [this]() { device_->powerOn(); });
        }
        scheduleNightRoutine(at + sim::Duration::days(1) +
                             sim::Duration::fromSecondsF(rng_.uniform(-1'800.0, 1'800.0)));
    });
}

void UserModel::scheduleNextLoggerToggle() {
    const auto& profile = device_->profile();
    if (profile.loggerTogglesPerMonth <= 0.0) return;
    const double perDay = profile.loggerTogglesPerMonth / 30.0;
    const double gap = activeGapSeconds(rng_, perDay, kActiveHours);
    auto& simulator = device_->simulator();
    const auto at = advanceActiveTime(simulator.now(), gap);
    simulator.scheduleAt(at, "phone.user", [this]() {
        if (device_->isOn()) {
            device_->toggleLogger(false);
            const auto offFor = rng_.lognormalDuration(kLoggerOffMedian, 0.6);
            device_->simulator().scheduleAfter(offFor, "phone.user", [this]() {
                if (device_->isOn()) device_->toggleLogger(true);
            });
        }
        scheduleNextLoggerToggle();
    });
}

// -- Freeze recovery ---------------------------------------------------------------

void UserModel::deviceFroze() {
    const auto& profile = device_->profile();
    const auto notice =
        rng_.lognormalDuration(profile.freezeNoticeMedian, kFreezeNoticeSigma);
    auto& simulator = device_->simulator();
    auto at = simulator.now() + notice;
    // Nobody pulls a battery in their sleep: push night-time notices to
    // the next morning.
    if (isNight(at)) {
        at = nextWake(at) + sim::Duration::fromSecondsF(rng_.uniform(0.0, 3'600.0));
    }
    simulator.scheduleAt(at, "phone.user", [this]() {
        if (device_->state() != PhoneDevice::PowerState::Frozen) return;
        device_->groundTruth().record(device_->simulator().now(),
                                      TruthKind::BatteryPull);
        device_->abruptPowerOff();
        const auto off =
            rng_.lognormalDuration(kBatteryPullOffMedian, kBatteryPullOffSigma);
        device_->simulator().scheduleAfter(off, "phone.user", [this]() { device_->powerOn(); });
    });
}

}  // namespace symfail::phone
