#include "logger/logger.hpp"

#include <optional>
#include <utility>

#include "crash/dump.hpp"
#include "symbos/err.hpp"
#include "symbos/heap.hpp"

namespace symfail::logger {

using phone::PhoneDevice;
using symbos::ExecContext;

FailureLogger::FailureLogger(PhoneDevice& device, LoggerConfig config)
    : device_{&device}, config_{config} {
    device_->addBootHook([this]() { onBoot(); });
    device_->addShutdownHook([this](phone::ShutdownKind kind) { onShutdown(kind); });
    device_->addPowerDownHook([this]() { teardownDaemon(); });
    device_->setLoggerToggleHook([this](bool on) { setEnabled(on); });
    device_->kernel().addPanicHook(
        [this](const symbos::PanicEvent& event) { onPanic(event); });
    // The daemon can die under the logger — OOM-killed by the kernel after
    // a heap-pressure leave, or stray-killed — without any device power
    // event.  Tear down its AOs so the dead process's timers stop firing;
    // the stale ALIVE beat stays in flash, to be (mis)read at the next
    // boot classification.
    device_->kernel().addTerminationHook(
        [this](symbos::ProcessId pid, const std::string& /*name*/,
               symbos::TerminationReason reason) {
            if (pid != daemonPid_ || daemonPid_ == 0) return;
            if (reason == symbos::TerminationReason::DeviceShutdown) return;
            ++daemonDeaths_;
            teardownDaemon();
        });
}

FailureLogger::FailureLogger(PhoneDevice& device)
    : FailureLogger{device, LoggerConfig{}} {}

FailureLogger::~FailureLogger() {
    teardownDaemon();
}

const std::string& FailureLogger::logFileContent() const {
    return device_->flash().content(kLogFile);
}

void FailureLogger::setEnabled(bool enabled) {
    if (enabled == enabled_) return;
    enabled_ = enabled;
    if (!enabled) {
        // The user deliberately turns the logger off: record MAOFF so the
        // next boot is not misclassified as a freeze.
        if (device_->isOn() && daemonPid_ != 0) writeBeat(BeatKind::Maoff);
        teardownDaemon();
    } else if (device_->isOn()) {
        onBoot();
    }
}

void FailureLogger::writeBeat(BeatKind kind) {
    // Only the most recent event matters (Section 5.2); the beats file is
    // compacted to its last line to keep a 14-month campaign bounded.
    if (auto* trace = device_->simulator().traceSink()) {
        const obs::TraceArg args[] = {{"beat", toString(kind)}};
        trace->instant(device_->traceTrack(), "logger", "heartbeat",
                       device_->simulator().now(), args);
    }
    // Records are stamped with the *device clock* (clockNow), not the
    // simulation clock: an osfault clock plane distorts only what lands
    // in flash, never when the write happens.
    device_->flash().replaceWithLine(
        kBeatsFile, serialize(BeatRecord{device_->clockNow(), kind}));
    if (kind == BeatKind::Alive) ++heartbeats_;
}

ActivityContext FailureLogger::currentActivityContext() const {
    // The Log Engine mirrors the activity database; an open voice-call row
    // (start without end) marks the voice-call context, likewise for
    // messages.  Voice calls win ties, as in the paper's Table 3.
    if (device_->activityActive(symbos::ActivityKind::VoiceCall)) {
        return ActivityContext::VoiceCall;
    }
    if (device_->activityActive(symbos::ActivityKind::TextMessage)) {
        return ActivityContext::Message;
    }
    return ActivityContext::Unspecified;
}

void FailureLogger::onPanic(const symbos::PanicEvent& event) {
    if (!enabled_ || daemonPid_ == 0) return;
    if (device_->state() != PhoneDevice::PowerState::On) return;
    PanicRecord record;
    record.time = device_->clockNow();
    record.panic = event.id;
    record.runningApps = device_->runningUserApps();
    record.activity = currentActivityContext();
    record.batteryPercent = device_->systemAgent().batteryPercent();
    if (auto* trace = device_->simulator().traceSink()) {
        const std::string panicName = symbos::toString(event.id);
        const obs::TraceArg args[] = {{"panic", panicName},
                                      {"activity", toString(record.activity)}};
        trace->instant(device_->traceTrack(), "logger", "panic-record", event.time,
                       args);
    }
    device_->flash().appendLine(kLogFile, serialize(record));
    ++panicsLogged_;
    if (config_.captureDumps) {
        // The dump rides the same Log File (and thus the same transport
        // path); it shares the panic record's timestamp so the analysis
        // spans and tables are untouched by its presence (and so both
        // records drift together under a skewed device clock).
        crash::CrashDump dump = crash::makeDump(event, record.runningApps);
        dump.time = record.time;
        device_->flash().appendLine(kLogFile, crash::serialize(dump));
    }
}

void FailureLogger::onBoot() {
    if (!enabled_) return;
    auto& flash = device_->flash();

    // First start on this phone: record device metadata.
    if (bootsLogged_ == 0 && !flash.exists(kLogFile)) {
        flash.appendLine(kLogFile,
                         serialize(MetaRecord{device_->clockNow(),
                                              device_->symbianVersion()}));
    }

    // Classify the previous shutdown from the last heartbeat event.  A
    // short read is *not* simply end-of-log: the file can end in a torn
    // tail (a write interrupted by power loss or a flash fault), which is
    // a distinct anomaly — counted, then recovered from by falling back to
    // the last complete line when the tail itself will not parse.
    BootRecord boot;
    boot.time = device_->clockNow();
    const phone::FlashTail tail = flash.readTail(kBeatsFile);
    if (tail.torn) ++tornBeatTails_;
    std::optional<BeatRecord> beat;
    if (!tail.line.empty()) {
        beat = parseBeat(tail.line);
        if (!beat) {
            ++malformedBeatLines_;
            // The tail is damaged goods; the previous complete line (if
            // any survived, e.g. after bit rot in a multi-line file) is
            // the best remaining evidence.
            const std::string recovered = flash.lastCompleteLine(kBeatsFile);
            if (!recovered.empty() && recovered != tail.line) {
                beat = parseBeat(recovered);
            }
        }
    }
    if (beat) {
        boot.lastBeatAt = beat->time;
        switch (beat->kind) {
            case BeatKind::Alive: boot.prior = PriorShutdown::Freeze; break;
            case BeatKind::Reboot: boot.prior = PriorShutdown::Reboot; break;
            case BeatKind::Lowbt: boot.prior = PriorShutdown::LowBattery; break;
            case BeatKind::Maoff: boot.prior = PriorShutdown::ManualOff; break;
        }
    } else if (tail.line.empty() && !tail.torn) {
        boot.prior = PriorShutdown::None;
        boot.lastBeatAt = sim::TimePoint::origin();
    } else {
        // Torn or unrecoverable write: treat as a freeze (the write was
        // interrupted with no graceful marker).
        boot.prior = PriorShutdown::Freeze;
        boot.lastBeatAt = sim::TimePoint::origin();
    }
    if (auto* trace = device_->simulator().traceSink()) {
        const obs::TraceArg args[] = {{"prior", toString(boot.prior)}};
        trace->instant(device_->traceTrack(), "logger", "boot-record", boot.time,
                       args);
    }
    flash.appendLine(kLogFile, serialize(boot));
    ++bootsLogged_;

    // Start the daemon: one background process hosting the AOs.
    daemonPid_ = device_->kernel().createProcess("FailureLogger",
                                                 symbos::ProcessKind::SystemServer);
    writeBeat(BeatKind::Alive);

    startPeriodicAo("heartbeat", config_.heartbeatPeriod, [this](ExecContext& ctx) {
        // The record is formatted in a heap scratch buffer.  Under an
        // osfault memory-pressure episode this allocation leaves with
        // KErrNoMemory, the RunL leave escalates to E32USER-CBase 47, and
        // the daemon is OOM-killed — the logger measured by its own
        // instrument.  With the default unbounded heap it never fails and
        // draws no randomness, so fault-free campaigns are unchanged.
        const symbos::HeapCell scratch =
            ctx.heap().allocL(ctx, kHeartbeatScratchBytes);
        writeBeat(BeatKind::Alive);
        ctx.heap().free(scratch);
    });
    startPeriodicAo("runapp-detector", config_.runappPeriod, [this](ExecContext&) {
        device_->flash().appendLine(
            kRunappFile, serializeRunapp(device_->clockNow(),
                                         device_->runningUserApps()));
        ++snapshots_;
    });
    startPeriodicAo("log-engine", config_.activityPeriod, [this](ExecContext&) {
        const auto rows = device_->dbLog().eventsSince(lastActivityCopied_);
        for (const auto& row : rows) {
            device_->flash().appendLine(
                kActivityFile,
                serializeActivity(row.time, symbos::toString(row.kind), row.incoming,
                                  row.isStart));
            if (row.time + sim::Duration::micros(1) > lastActivityCopied_) {
                lastActivityCopied_ = row.time + sim::Duration::micros(1);
            }
        }
    });
    startPeriodicAo("power-manager", config_.powerPeriod, [this](ExecContext&) {
        device_->flash().appendLine(
            kPowerFile,
            serializePower(device_->clockNow(),
                           device_->systemAgent().batteryPercent(),
                           device_->systemAgent().charging()));
    });
}

void FailureLogger::restartDaemon() {
    if (!enabled_ || !device_->isOn() || daemonPid_ != 0) return;
    onBoot();
}

void FailureLogger::startPeriodicAo(std::string name, sim::Duration period,
                                    std::function<void(ExecContext&)> body) {
    auto& scheduler = device_->kernel().schedulerOf(daemonPid_);
    // RunL runs the body and re-arms the timer — the standard Symbian
    // periodic-service idiom.  The timer pointer is filled in just after
    // construction (AO and timer reference each other).
    auto timerSlot = std::make_shared<symbos::RTimer*>(nullptr);
    auto ao = std::make_unique<symbos::FunctionAo>(
        scheduler, std::move(name),
        [body = std::move(body), timerSlot, period](ExecContext& ctx, int status) {
            if (status != symbos::KErrNone) return;
            // A body that leaves (heap pressure) skips the re-arm — moot,
            // since the leave escalates to a panic that kills the daemon.
            body(ctx);
            if (*timerSlot != nullptr) (*timerSlot)->after(ctx, period);
        });
    auto timer = std::make_unique<symbos::RTimer>(*ao);
    *timerSlot = timer.get();
    ao->setCancelFn([timerSlot]() {
        if (*timerSlot != nullptr) (*timerSlot)->cancel();
    });
    // Arm the first tick from the daemon's context.
    device_->kernel().runInProcess(
        daemonPid_, [&](ExecContext& ctx) { (*timerSlot)->after(ctx, period); });
    aos_.push_back(std::move(ao));
    timers_.push_back(std::move(timer));
}

void FailureLogger::onShutdown(phone::ShutdownKind kind) {
    if (!enabled_ || daemonPid_ == 0) return;
    writeBeat(kind == phone::ShutdownKind::LowBattery ? BeatKind::Lowbt
                                                      : BeatKind::Reboot);
}

void FailureLogger::teardownDaemon() {
    timers_.clear();
    aos_.clear();
    daemonPid_ = 0;
}

}  // namespace symfail::logger
