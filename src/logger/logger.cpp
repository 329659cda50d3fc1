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
    device_->setLoggerSyncHook([this]() { catchUp(); });
    device_->flash().setReadHook([this](std::string_view file) {
        if (file == kBeatsFile || file == kRunappFile || file == kActivityFile ||
            file == kPowerFile) {
            catchUp();
        }
    });
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

// Touches no device: fleets and tests destroy the device first, and the
// device clears the hooks that point here.
FailureLogger::~FailureLogger() = default;

const std::string& FailureLogger::logFileContent() const {
    return device_->flash().content(kLogFile);
}

void FailureLogger::setEnabled(bool enabled) {
    if (enabled == enabled_) return;
    enabled_ = enabled;
    if (!enabled) {
        // The user deliberately turns the logger off: record MAOFF so the
        // next boot is not misclassified as a freeze.
        catchUp();
        if (device_->isOn() && daemonPid_ != 0) {
            writeBeat(BeatKind::Maoff, device_->simulator().now());
        }
        teardownDaemon();
    } else if (device_->isOn()) {
        onBoot();
    }
}

sim::TimePoint FailureLogger::stampAt(sim::TimePoint at) {
    // Records are stamped with the *device clock* (clockNow), not the
    // simulation clock: an osfault clock plane distorts only what lands
    // in flash, never when the write happens.  A derived tick is written
    // after its time and stamps that time: only phones whose clock no
    // plane distorts derive ticks, and their clock is the simulation's.
    return at == device_->simulator().now() ? device_->clockNow() : at;
}

void FailureLogger::writeBeat(BeatKind kind, sim::TimePoint at) {
    // Only the most recent event matters (Section 5.2); the beats file is
    // compacted to its last line to keep a 14-month campaign bounded.
    if (auto* trace = device_->simulator().traceSink()) {
        const obs::TraceArg args[] = {{"beat", toString(kind)}};
        trace->instant(device_->traceTrack(), "logger", "heartbeat", at, args);
    }
    line_.clear();
    appendBeat(line_, BeatRecord{stampAt(at), kind});
    device_->flash().replaceWithLine(kBeatsFile, line_);
}

void FailureLogger::writeRunapp(sim::TimePoint at) {
    line_.clear();
    appendRunapp(line_, stampAt(at), device_->appArch().running());
    device_->flash().appendLine(kRunappFile, line_);
    ++snapshots_;
}

void FailureLogger::copyActivity() {
    for (const auto& row : device_->dbLog().eventsSince(lastActivityCopied_)) {
        device_->flash().appendLine(
            kActivityFile, serializeActivity(row.time, symbos::toString(row.kind),
                                             row.incoming, row.isStart));
        if (row.time + sim::Duration::micros(1) > lastActivityCopied_) {
            lastActivityCopied_ = row.time + sim::Duration::micros(1);
        }
    }
}

void FailureLogger::writePower(sim::TimePoint at) {
    const auto& agent = device_->systemAgent();
    line_.clear();
    appendPower(line_, stampAt(at), agent.batteryPercent(), agent.charging());
    device_->flash().appendLine(kPowerFile, line_);
}

std::uint64_t FailureLogger::dueTicks(const Cadence& cadence) const {
    if (!deriving_ || !device_->isOn()) return 0;
    const sim::Simulator& simulator = device_->simulator();
    sim::TimePoint last = simulator.now();
    if (simulator.dispatching()) last = last - sim::Duration::micros(1);
    if (cadence.next > last) return 0;
    return static_cast<std::uint64_t>((last - cadence.next).totalMicros() /
                                      cadence.period.totalMicros()) +
           1;
}

void FailureLogger::catchUp() {
    if (!deriving_) return;
    if (!device_->isOn()) {
        deriving_ = false;
        return;
    }
    if (const std::uint64_t beats = dueTicks(heartbeat_); beats != 0) {
        // The beats file keeps only its last line: write the last due beat.
        const sim::TimePoint last =
            heartbeat_.next + heartbeat_.period * static_cast<std::int64_t>(beats - 1);
        writeBeat(BeatKind::Alive, last);
        heartbeats_ += beats;
        heartbeat_.next = last + heartbeat_.period;
    }
    for (std::uint64_t n = dueTicks(runapp_); n != 0; --n) {
        writeRunapp(runapp_.next);
        runapp_.next += runapp_.period;
    }
    for (std::uint64_t n = dueTicks(logEngine_); n != 0; --n) {
        copyActivity();
        logEngine_.next += logEngine_.period;
    }
    for (std::uint64_t n = dueTicks(power_); n != 0; --n) {
        writePower(power_.next);
        power_.next += power_.period;
    }
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

    // Start the daemon: one background process hosting the AOs, whose
    // periodic ticks are kept as cadences unless a fault plane observes
    // them.
    daemonPid_ = device_->kernel().createProcess("FailureLogger",
                                                 symbos::ProcessKind::SystemServer);
    const sim::TimePoint now = device_->simulator().now();
    writeBeat(BeatKind::Alive, now);
    ++heartbeats_;

    if (!ticksObserved_) {
        heartbeat_ = {now + config_.heartbeatPeriod, config_.heartbeatPeriod};
        runapp_ = {now + config_.runappPeriod, config_.runappPeriod};
        logEngine_ = {now + config_.activityPeriod, config_.activityPeriod};
        power_ = {now + config_.powerPeriod, config_.powerPeriod};
        deriving_ = true;
        return;
    }
    startPeriodicAo("heartbeat", config_.heartbeatPeriod, [this](ExecContext& ctx) {
        // The record is formatted in a heap scratch buffer.  Under an
        // osfault memory-pressure episode this allocation leaves with
        // KErrNoMemory, the RunL leave escalates to E32USER-CBase 47, and
        // the daemon is OOM-killed — the logger measured by its own
        // instrument.  With the default unbounded heap it never fails and
        // draws no randomness, so fault-free campaigns are unchanged.
        const symbos::HeapCell scratch =
            ctx.heap().allocL(ctx, kHeartbeatScratchBytes);
        writeBeat(BeatKind::Alive, device_->simulator().now());
        ++heartbeats_;
        ctx.heap().free(scratch);
    });
    startPeriodicAo("runapp-detector", config_.runappPeriod, [this](ExecContext&) {
        writeRunapp(device_->simulator().now());
    });
    startPeriodicAo("log-engine", config_.activityPeriod,
                    [this](ExecContext&) { copyActivity(); });
    startPeriodicAo("power-manager", config_.powerPeriod, [this](ExecContext&) {
        writePower(device_->simulator().now());
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
                                                      : BeatKind::Reboot,
              device_->simulator().now());
}

void FailureLogger::teardownDaemon() {
    catchUp();
    deriving_ = false;
    timers_.clear();
    aos_.clear();
    daemonPid_ = 0;
}

}  // namespace symfail::logger
