#include "logger/logger.hpp"

#include <cassert>
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
        if (file == kBeatsFile) catchUp();
    });
    device_->kernel().addPanicHook(
        [this](const symbos::PanicEvent& event) { onPanic(event); });
    // The daemon can die under the logger — OOM-killed by the kernel after
    // a heap-pressure leave, or stray-killed — without any device power
    // event.  Tear down its AO so the dead process's timer stops firing;
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

std::string FailureLogger::takeLogFile() { return device_->flash().take(kLogFile); }

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

// Records are stamped with the *device clock*, not the simulation clock:
// an osfault clock plane distorts only what lands in flash, never when the
// write happens.  A derived tick stamps the clock's reading at its own
// time, which no later jump changes: a jump syncs the logger first.

void FailureLogger::writeBeat(BeatKind kind, sim::TimePoint at) {
    // Only the most recent event matters (Section 5.2); the beats file is
    // compacted to its last line to keep a 14-month campaign bounded.
    if (auto* trace = device_->simulator().traceSink()) {
        const obs::TraceArg args[] = {{"beat", toString(kind)}};
        trace->instant(device_->traceTrack(), "logger", "heartbeat", at, args);
    }
    line_.clear();
    appendBeat(line_, BeatRecord{device_->clockAt(at), kind});
    device_->flash().replaceWithLine(kBeatsFile, line_);
}

void FailureLogger::writeAlive(sim::TimePoint at) {
    writeBeat(BeatKind::Alive, at);
    ++heartbeats_;
}

sim::TimePoint FailureLogger::dueBy() const {
    const sim::Simulator& simulator = device_->simulator();
    return simulator.dispatching() ? simulator.now() - sim::Duration::micros(1)
                                   : simulator.now();
}

std::uint64_t FailureLogger::dueBeats(sim::TimePoint last) const {
    if (!deriving_ || !device_->isOn() || nextBeat_ > last) return 0;
    return static_cast<std::uint64_t>((last - nextBeat_).totalMicros() /
                                      config_.heartbeatPeriod.totalMicros()) +
           1;
}

bool FailureLogger::planeSeesBeats() const {
    return device_->clockAttached() || device_->flash().writeFaultArmed(kBeatsFile);
}

void FailureLogger::catchUp() {
    device_->syncBattery();
    if (!deriving_) return;
    if (!device_->isOn()) {
        deriving_ = false;
        return;
    }
    std::uint64_t beats = dueBeats(dueBy());
    if (beats == 0) return;
    const sim::Duration period = config_.heartbeatPeriod;
    // The beats file keeps only its last line, so of several due beats the
    // ones before the last are only counted, except the first where a
    // plane sees it: a write fault armed against the beats file takes it,
    // and a device clock counts its read.
    if (beats > 1 && planeSeesBeats()) {
        writeAlive(nextBeat_);
        nextBeat_ += period;
        --beats;
    }
    heartbeats_ += beats - 1;
    nextBeat_ += period * static_cast<std::int64_t>(beats - 1);
    writeAlive(nextBeat_);
    nextBeat_ += period;
}

ActivityContext FailureLogger::currentActivityContext() const {
    // The activity under way at panic time: an open voice call marks the
    // voice-call context, likewise for messages.  Voice calls win ties, as
    // in the paper's Table 3.
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
    // The record reads the battery, so its due ticks run first.  A device
    // clock counts reads that go back in time: the beats due read it
    // before the panic record does.
    device_->syncBattery();
    if (device_->clockAttached()) catchUp();
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
    // The daemon is down, so no derived tick is pending to read the clock
    // before the META and BOOT records do.
    assert(!deriving_);
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

    // Start the daemon: one background process whose heartbeat is derived,
    // or runs as a real AO when observed.
    daemonPid_ = device_->kernel().createProcess("FailureLogger",
                                                 symbos::ProcessKind::SystemServer);
    const sim::TimePoint now = device_->simulator().now();
    writeAlive(now);
    heartbeatsAtStart_ = heartbeats_;
    nextBeat_ = now + config_.heartbeatPeriod;
    deriving_ = true;
    if (ticksObserved_) switchToAoTicks();
}

void FailureLogger::restartDaemon() {
    if (!enabled_ || !device_->isOn() || daemonPid_ != 0) return;
    onBoot();
}

void FailureLogger::switchToAoTicks() {
    catchUp();
    if (!deriving_) return;
    deriving_ = false;
    // Every heartbeat AO allocates and frees a scratch cell: the derived
    // ones count too, so a panic's DUMP reads the same heap totals.
    device_->kernel().heapOf(daemonPid_).countFreedAllocs(heartbeats_ -
                                                          heartbeatsAtStart_);
    startAo();
}

void FailureLogger::startAo() {
    // RunL writes the beat and re-arms the timer — the standard Symbian
    // periodic-service idiom.
    heartbeatAo_ = std::make_unique<symbos::FunctionAo>(
        device_->kernel().schedulerOf(daemonPid_), "heartbeat",
        [this](ExecContext& ctx, int status) {
            if (status != symbos::KErrNone) return;
            // The record is formatted in a heap scratch buffer.  Under an
            // osfault memory-pressure episode this allocation leaves with
            // KErrNoMemory, the RunL leave escalates to E32USER-CBase 47,
            // and the daemon is OOM-killed — the logger measured by its
            // own instrument.  The leave skips the re-arm, moot since the
            // daemon dies.
            const symbos::HeapCell scratch = ctx.heap().allocL(ctx, kHeartbeatScratchBytes);
            writeAlive(device_->simulator().now());
            ctx.heap().free(scratch);
            heartbeatTimer_->after(ctx, config_.heartbeatPeriod);
        });
    heartbeatTimer_ = std::make_unique<symbos::RTimer>(*heartbeatAo_);
    heartbeatAo_->setCancelFn([this]() { heartbeatTimer_->cancel(); });
    // Arm the first tick from the daemon's context.
    device_->kernel().runInProcess(daemonPid_, [this](ExecContext& ctx) {
        heartbeatTimer_->after(ctx, nextBeat_ - device_->simulator().now());
    });
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
    heartbeatTimer_.reset();
    heartbeatAo_.reset();
    daemonPid_ = 0;
}

}  // namespace symfail::logger
