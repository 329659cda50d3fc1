// The failure data logger — the paper's central artifact (Section 5).
//
// A daemon application that starts at phone boot.  The paper's Figure 1
// runs five active objects; two of them carry what the analysis reads:
//
//   * Heartbeat — periodically writes ALIVE to the beats file; on a
//     graceful shutdown writes REBOOT (or LOWBT for battery exhaustion,
//     MAOFF when the user turns the logger off).  Because a frozen phone
//     stops scheduling, a freeze leaves ALIVE as the final event — which
//     is how freezes are detected at the next boot.
//   * Panic Detector — subscribes to kernel panic notifications (the
//     RDebug stand-in), writes a consolidated PANIC record (panic id,
//     running applications, activity context, battery) the moment a panic
//     is delivered, and at boot classifies the previous shutdown from the
//     last heartbeat event and writes a BOOT record.
//
// The paper's Running Applications Detector, Log Engine and Power Manager
// write files no analysis reads: Tables 3 and 4 read the running
// applications and activity context of the PANIC record, which reads the
// device at panic time.  So they are not modelled, and the heartbeat is
// the daemon's one periodic duty.
//
// The daemon keeps the heartbeat's next tick as data and writes the due
// beats at the next sync: before the phone freezes or powers down, before
// the user turns the logger off, before the beats file is read, and
// before an OS-interface fault plane acts on the flash, the clock or the
// daemon's heap.  Each sync first runs the device's due battery ticks,
// which are derived too.  The heartbeat runs as a real RTimer-driven AO
// only in a daemon whose heap the memory plane squeezes, until it dies
// one heartbeat later, and under observeTicks(), the reference the tests
// compare against.  Both paths write the same bytes; docs/METHODOLOGY.md
// §1 and §13 give the rules this rests on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "logger/records.hpp"
#include "phone/device.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/timer.hpp"

namespace symfail::logger {

/// Logger tuning knobs (the heartbeat period is the paper's [1] tuning
/// parameter: shorter periods sharpen freeze timestamps but cost writes).
struct LoggerConfig {
    sim::Duration heartbeatPeriod = sim::Duration::seconds(60);
    /// Writes a structured DUMP record right after every PANIC record.
    /// Dumps share the panic's timestamp, so enabling them never changes
    /// the failure analysis — only adds the clustering material.
    bool captureDumps = true;
};

/// Scratch buffer the heartbeat formats its record in.  The daemon's one
/// per-tick heap allocation — which is what makes it killable by memory
/// pressure: when the heap can no longer cover this, the heartbeat's RunL
/// leaves and the daemon dies with E32USER-CBase 47.
inline constexpr std::size_t kHeartbeatScratchBytes = 512;

/// The logger daemon.  One instance per phone; restarts its heartbeat at
/// every boot (like the real daemon restarting with the phone).
class FailureLogger {
public:
    FailureLogger(phone::PhoneDevice& device, LoggerConfig config);
    explicit FailureLogger(phone::PhoneDevice& device);
    ~FailureLogger();
    FailureLogger(const FailureLogger&) = delete;
    FailureLogger& operator=(const FailureLogger&) = delete;

    /// MAOFF handling: disabling writes the MAOFF marker and stops the
    /// daemon; enabling restarts it (if the phone is on).
    void setEnabled(bool enabled);
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// The consolidated Log File content (what the collection
    /// infrastructure uploads).
    [[nodiscard]] const std::string& logFileContent() const;
    /// Moves the Log File out of flash (a fleet's harvest at campaign
    /// end); the file reads empty afterwards.
    [[nodiscard]] std::string takeLogFile();

    /// Pid of the running daemon process (0 when not running).
    [[nodiscard]] symbos::ProcessId daemonPid() const { return daemonPid_; }

    /// Runs the heartbeat as real AO ticks from every daemon start: the
    /// reference path that tests compare the derived ticks with, and what
    /// BM_LoggerHeartbeatTick times.  No shipped run calls it.  Call
    /// before the phone boots.
    void observeTicks() { ticksObserved_ = true; }

    /// Writes the derived ticks due, then runs the running daemon's
    /// heartbeat as real AO ticks until it stops.  The memory plane calls
    /// this before it squeezes the daemon's heap, so the next heartbeat's
    /// scratch allocation fails inside a real RunL.  No-op unless the
    /// daemon derives its ticks.
    void switchToAoTicks();

    /// Restarts a dead daemon on a running phone without a device boot —
    /// the watchdog path after the daemon was OOM-killed.  The restart
    /// re-runs boot classification, so a stale ALIVE beat left by the dead
    /// daemon is (mis)read as a freeze: precisely the measurement artifact
    /// the validity analysis quantifies.  No-op unless the logger is
    /// enabled, the phone is on, and the daemon is down.
    void restartDaemon();

    // Statistics (used by tests and the overhead ablation).  The heartbeat
    // count includes beats due but not yet written.
    [[nodiscard]] std::uint64_t heartbeatsWritten() const {
        return heartbeats_ + dueBeats(dueBy());
    }
    [[nodiscard]] std::uint64_t panicsLogged() const { return panicsLogged_; }
    [[nodiscard]] std::uint64_t bootsLogged() const { return bootsLogged_; }
    /// Beats files found ending in a torn (newline-less) tail at boot.
    [[nodiscard]] std::uint64_t tornBeatTails() const { return tornBeatTails_; }
    /// Beat lines that would not parse at boot classification.
    [[nodiscard]] std::uint64_t malformedBeatLines() const {
        return malformedBeatLines_;
    }
    /// Records-anomaly counter: every beats-file irregularity the boot
    /// classifier observed (torn tails + unparseable lines).
    [[nodiscard]] std::uint64_t recordAnomalies() const {
        return tornBeatTails_ + malformedBeatLines_;
    }
    /// Times the daemon process died under it (OOM-kill, stray kill)
    /// rather than by device power-down.
    [[nodiscard]] std::uint64_t daemonDeaths() const { return daemonDeaths_; }

    [[nodiscard]] const LoggerConfig& config() const { return config_; }

    /// Approximate heap footprint of the logger object and its per-boot AO
    /// machinery.  The log content itself lives in the device's flash
    /// store and is accounted there.
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        return sizeof *this + line_.capacity() +
               (heartbeatAo_ != nullptr ? sizeof(symbos::FunctionAo) + sizeof(symbos::RTimer)
                                        : 0);
    }

private:
    void onBoot();
    void onShutdown(phone::ShutdownKind kind);
    void onPanic(const symbos::PanicEvent& event);
    /// Writes the derived ticks due, then stops the daemon's ticks.
    void teardownDaemon();
    [[nodiscard]] ActivityContext currentActivityContext() const;

    /// The heartbeat's writer.  `at` is the beat's simulated time; it is
    /// stamped with the device clock's reading at `at`.
    void writeBeat(BeatKind kind, sim::TimePoint at);
    /// One heartbeat tick at `at`, from its AO body or the catch-up.
    void writeAlive(sim::TimePoint at);

    /// Runs the device's due battery ticks, then counts every derived beat
    /// due by dueBy() and writes the last, and the first too where a plane
    /// sees it.  A frozen phone's beats stopped at the freeze, whose sync
    /// wrote the ones before it.
    void catchUp();
    /// True where a beat written now and overwritten before the next read
    /// still shows: a device clock counts its read, or a write fault is
    /// armed against the beats file.
    [[nodiscard]] bool planeSeesBeats() const;
    /// The last instant whose ticks are due.  Inside an event at t a tick
    /// at t is not due yet: in the AO model it runs after the events
    /// already queued for t, so it sees the change the sync precedes.
    /// Between events it has run.
    [[nodiscard]] sim::TimePoint dueBy() const;
    /// Derived beats due by `last` and not yet written.
    [[nodiscard]] std::uint64_t dueBeats(sim::TimePoint last) const;

    /// Creates the heartbeat's self-re-arming AO driven by an RTimer,
    /// first due at nextBeat_.
    void startAo();

    phone::PhoneDevice* device_;
    LoggerConfig config_;
    bool enabled_{true};
    bool ticksObserved_{false};

    // Per-boot daemon state: the heartbeat's AO and timer, or while
    // deriving_ the time of the next beat not yet written.
    symbos::ProcessId daemonPid_{0};
    std::unique_ptr<symbos::FunctionAo> heartbeatAo_;
    std::unique_ptr<symbos::RTimer> heartbeatTimer_;
    bool deriving_{false};
    sim::TimePoint nextBeat_{};
    /// heartbeats_ after the daemon's boot beat: each heartbeat tick since
    /// allocated one scratch cell from the daemon's heap.
    std::uint64_t heartbeatsAtStart_{0};
    /// Format buffer reused by every beat.
    std::string line_;

    std::uint64_t heartbeats_{0};
    std::uint64_t panicsLogged_{0};
    std::uint64_t bootsLogged_{0};
    std::uint64_t tornBeatTails_{0};
    std::uint64_t malformedBeatLines_{0};
    std::uint64_t daemonDeaths_{0};
};

}  // namespace symfail::logger
