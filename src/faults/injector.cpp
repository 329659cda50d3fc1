#include "faults/injector.hpp"

#include <array>
#include <vector>

#include "phone/apps.hpp"

namespace symfail::faults {

using phone::PhoneDevice;
using phone::TruthKind;
using symbos::ActivityKind;
using symbos::ProcessId;

FaultInjector::FaultInjector(PhoneDevice& device, FaultRates rates, std::uint64_t seed)
    : device_{&device}, rates_{std::move(rates)}, rng_{seed} {
    backgroundTotalPerHour_ = rates_.hangPerOnHour + rates_.spontaneousPerOnHour +
                              rates_.outputFailurePerOnHour;
    for (const auto& cr : rates_.classes) backgroundTotalPerHour_ += cr.perOnHour;

    device_->addBootHook([this]() { onBoot(); });
    device_->addPowerDownHook([this]() { bag_.clear(); });
    device_->addActivityHook([this](ActivityKind kind, bool started) {
        onActivity(kind, started);
    });
}

void FaultInjector::onBoot() {
    scheduleBackgroundChain();
}

void FaultInjector::deferred(sim::Duration delay, const std::function<void()>& body) {
    // Boot-scoped execution: behaviour scheduled within one boot must not
    // run after a freeze or reboot.  The boot counter is the epoch.
    const auto bootCount = device_->bootCount();
    device_->simulator().scheduleAfter(delay, "faults", [this, bootCount, body]() {
        if (device_->bootCount() != bootCount || !device_->isOn()) return;
        body();
    });
}

void FaultInjector::scheduleBackgroundChain() {
    if (backgroundTotalPerHour_ <= 0.0) return;
    const double meanGapSeconds = 3'600.0 / backgroundTotalPerHour_;
    const auto gap = sim::Duration::fromSecondsF(rng_.exponential(meanGapSeconds));
    deferred(gap, [this]() {
        // Pick which background source fired.
        std::vector<double> weights;
        weights.reserve(rates_.classes.size() + 3);
        for (const auto& cr : rates_.classes) weights.push_back(cr.perOnHour);
        weights.push_back(rates_.hangPerOnHour);
        weights.push_back(rates_.spontaneousPerOnHour);
        weights.push_back(rates_.outputFailurePerOnHour);
        const std::size_t pick = rng_.discrete(weights);
        if (pick < rates_.classes.size()) {
            activate(pick);
        } else if (pick == rates_.classes.size()) {
            executeHang();
        } else if (pick == rates_.classes.size() + 1) {
            executeSpontaneousReboot();
        } else {
            executeOutputFailure();
        }
        scheduleBackgroundChain();
    });
}

void FaultInjector::onActivity(ActivityKind kind, bool started) {
    if (!started || !device_->isOn()) return;
    // Deferral keeps the activation inside the typical activity window
    // (median call ~90 s, message handling ~30 s) so the logged activity
    // context reflects the trigger.
    if (kind == ActivityKind::VoiceCall) {
        for (std::size_t i = 0; i < rates_.classes.size(); ++i) {
            if (rates_.classes[i].perCall > 0.0 &&
                rng_.bernoulli(rates_.classes[i].perCall)) {
                deferred(sim::Duration::fromSecondsF(rng_.uniform(1.0, 20.0)),
                         [this, i]() { activate(i); });
            }
        }
    } else if (kind == ActivityKind::TextMessage) {
        for (std::size_t i = 0; i < rates_.classes.size(); ++i) {
            if (rates_.classes[i].perMessage > 0.0 &&
                rng_.bernoulli(rates_.classes[i].perMessage)) {
                deferred(sim::Duration::fromSecondsF(rng_.uniform(1.0, 10.0)),
                         [this, i]() { activate(i); });
            }
        }
    }
}

void FaultInjector::activate(std::size_t classIdx) {
    if (!device_->isOn()) return;
    const auto& spec = rates_.classes[classIdx].spec;

    // A burst: zero or more harmless secondary panics (error propagation
    // between applications) in quick succession, then the primary with
    // its outcome.  The whole burst spans seconds, as in the paper's
    // logs, so an activity-triggered burst still lands inside its
    // activity window.
    int secondaries = 0;
    if (spec.cascadeProb > 0.0 && rng_.bernoulli(spec.cascadeProb)) {
        secondaries = rng_.geometric(kCascadeGeomP);
    }
    sim::Duration offset{};
    for (int i = 0; i < secondaries; ++i) {
        offset += sim::Duration::fromSecondsF(rng_.uniform(1.0, 8.0));
        deferred(offset, [this]() { executeSecondary(); });
    }
    offset += sim::Duration::fromSecondsF(
        secondaries > 0 ? rng_.uniform(1.0, 8.0) : 0.0);
    deferred(offset, [this, classIdx]() { executePrimary(classIdx); });
}

void FaultInjector::executePrimary(std::size_t classIdx) {
    if (!device_->isOn()) return;
    const auto& spec = rates_.classes[classIdx].spec;
    const OutcomeKind outcome = drawOutcome(spec);
    const ProcessId victim = victimFor(spec, outcome);
    if (victim == 0) return;
    device_->groundTruth().record(device_->simulator().now(), TruthKind::PanicInjected);
    ++stats_.primaryPanics;
    driveMechanism(*device_, victim, spec.panic, bag_);
}

void FaultInjector::executeSecondary() {
    if (!device_->isOn()) return;
    // Category drawn from the overall panic mix so cascades do not skew
    // Table 2; always harmless (the propagation victims are ordinary
    // applications).
    std::vector<double> weights;
    weights.reserve(rates_.classes.size());
    for (const auto& cr : rates_.classes) weights.push_back(cr.spec.sharePercent);
    const auto pick = rng_.discrete(weights);
    const auto& spec = rates_.classes[pick].spec;
    const ProcessId victim = harmlessVictim();
    if (victim == 0) return;
    device_->groundTruth().record(device_->simulator().now(), TruthKind::PanicInjected);
    ++stats_.secondaryPanics;
    driveMechanism(*device_, victim, spec.panic, bag_);
}

void FaultInjector::executeHang() {
    if (!device_->isOn()) return;
    ++stats_.hangs;
    device_->groundTruth().record(device_->simulator().now(), TruthKind::HangInjected);
    device_->freeze("hang");
}

void FaultInjector::executeSpontaneousReboot() {
    if (!device_->isOn()) return;
    ++stats_.spontaneousReboots;
    device_->groundTruth().record(device_->simulator().now(),
                                  TruthKind::SpontaneousReboot);
    device_->selfReboot("spontaneous");
}

void FaultInjector::executeOutputFailure() {
    if (!device_->isOn()) return;
    static constexpr std::array<std::string_view, 6> kSymptoms{
        "ring volume differs from configured value",
        "charge indicator stuck at full",
        "event reminder fired at wrong time",
        "wallpaper reset to default",
        "caller id shows wrong contact",
        "display date wrong after midnight",
    };
    ++stats_.outputFailures;
    device_->outputFailureOccurred(std::string{kSymptoms[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(kSymptoms.size()) - 1))]});
}

FaultInjector::OutcomeKind FaultInjector::drawOutcome(const FaultClassSpec& spec) {
    const double r = rng_.uniform01();
    if (r < spec.pFreeze) return OutcomeKind::Freeze;
    if (r < spec.pFreeze + spec.pShutdown) return OutcomeKind::Shutdown;
    return OutcomeKind::None;
}

ProcessId FaultInjector::victimFor(const FaultClassSpec& spec, OutcomeKind outcome) {
    switch (outcome) {
        case OutcomeKind::Freeze:
            return device_->pidOf(phone::kProcWindowServer);
        case OutcomeKind::Shutdown:
            if (spec.panic.category == symbos::PanicCategory::PhoneApp) {
                return device_->pidOf(phone::kAppTelephone);
            }
            if (spec.panic.category == symbos::PanicCategory::MsgsClient) {
                return device_->pidOf(phone::kProcMsgServer);
            }
            return device_->pidOf(phone::kProcFileServer);
        case OutcomeKind::None:
            return harmlessVictim();
    }
    return 0;
}

ProcessId FaultInjector::runningUserAppVictim() {
    // Prefer an application already in use, weighted by affinity.
    const auto running = device_->runningUserApps();
    std::vector<double> weights;
    std::vector<ProcessId> pids;
    for (const auto& app : running) {
        const auto pid = device_->pidOf(app);
        if (pid == 0) continue;
        if (device_->kernel().processKind(pid) != symbos::ProcessKind::UserApp) continue;
        double weight = 0.5;
        for (const auto& aff : appAffinities()) {
            if (aff.app == app) {
                weight = aff.weight;
                break;
            }
        }
        weights.push_back(weight);
        pids.push_back(pid);
    }
    if (pids.empty()) return 0;
    return pids[rng_.discrete(weights)];
}

ProcessId FaultInjector::harmlessVictim() {
    if (!device_->isOn()) return 0;
    if (const auto pid = runningUserAppVictim(); pid != 0) return pid;
    // Nothing running: the panic strikes whatever the user just opened.
    // Launch a short session from the affinity distribution to create the
    // running-application context the paper's Table 4 correlates with.
    std::vector<double> weights;
    for (const auto& aff : appAffinities()) weights.push_back(aff.weight);
    const auto& aff = appAffinities()[rng_.discrete(weights)];
    const auto duration = rng_.lognormalDuration(sim::Duration::seconds(60), 0.5);
    const auto pid = device_->startAppSession(aff.app, duration);
    if (pid != 0 &&
        device_->kernel().processKind(pid) == symbos::ProcessKind::UserApp) {
        return pid;
    }
    // The contextual app is a core app (e.g. Messages): panic a disposable
    // third-party process instead so the device-level outcome stays "none".
    return device_->kernel().createProcess("ThirdPartyApp",
                                           symbos::ProcessKind::UserApp);
}

}  // namespace symfail::faults
