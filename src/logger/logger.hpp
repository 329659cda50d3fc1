// The failure data logger — the paper's central artifact (Section 5).
//
// A daemon application that starts at phone boot and runs five active
// objects (Figure 1 of the paper):
//
//   * Heartbeat — periodically writes ALIVE to the beats file; on a
//     graceful shutdown writes REBOOT (or LOWBT for battery exhaustion,
//     MAOFF when the user turns the logger off).  Because a frozen phone
//     stops scheduling, a freeze leaves ALIVE as the final event — which
//     is how freezes are detected at the next boot.
//   * Running Applications Detector, Log Engine and Power Manager — in the
//     paper they snapshot the running applications, copy phone activity
//     from the Database Log Server and record battery status, each to its
//     own file.  No analysis reads those files: Tables 3 and 4 read the
//     running applications and activity context of the PANIC record.
//     Here the three keep their cadences and only count their ticks (the
//     runapp snapshots); they write nothing.
//   * Panic Detector — subscribes to kernel panic notifications (the
//     RDebug stand-in), writes a consolidated PANIC record (panic id,
//     running applications, activity context, battery) the moment a panic
//     is delivered, and at boot classifies the previous shutdown from the
//     last heartbeat event and writes a BOOT record.
//
// So the heartbeat is the one periodic duty that writes, and the only one
// that reads the device clock.  The daemon keeps each duty's cadence as
// data and writes the due beats at the next sync: before the phone changes
// its applications, activities or power state, before the beats file is
// read, and before an OS-interface fault plane acts on the flash, the
// clock or the daemon's heap.  Each sync first runs the device's due
// battery ticks, which are derived too; a battery tick writes the beats
// due before it only where a plane sees them, since the next sync's beat
// overwrites the rest.  The four RTimer-driven AOs run only in
// a daemon whose heap the memory plane squeezes, until it dies one
// heartbeat later, and under observeTicks(), the reference the tests
// compare against.  Both paths write the same bytes; docs/METHODOLOGY.md
// §1 and §13 give the rules this rests on.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "logger/records.hpp"
#include "phone/device.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/timer.hpp"

namespace symfail::logger {

/// Logger tuning knobs (the heartbeat period is the paper's [1] tuning
/// parameter: shorter periods sharpen freeze timestamps but cost writes).
struct LoggerConfig {
    sim::Duration heartbeatPeriod = sim::Duration::seconds(60);
    sim::Duration runappPeriod = sim::Duration::seconds(120);
    sim::Duration activityPeriod = sim::Duration::seconds(300);
    sim::Duration powerPeriod = sim::Duration::seconds(600);
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

/// The logger daemon.  One instance per phone; re-creates its active
/// objects at every boot (like the real daemon restarting with the phone).
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

    /// Pid of the running daemon process (0 when not running).
    [[nodiscard]] symbos::ProcessId daemonPid() const { return daemonPid_; }

    /// Runs the periodic duties as real AO ticks from every daemon start:
    /// the reference path that tests compare the derived ticks with, and
    /// what BM_LoggerHeartbeatTick times.  No shipped run calls it.  Call
    /// before the phone boots.
    void observeTicks() { ticksObserved_ = true; }

    /// Writes the derived ticks due, then runs the running daemon's duties
    /// as real AO ticks until it stops.  The memory plane calls this
    /// before it squeezes the daemon's heap, so the next heartbeat's
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

    // Statistics (used by tests and the overhead ablation).  The tick
    // counts include ticks due but not yet written.
    [[nodiscard]] std::uint64_t heartbeatsWritten() const {
        return heartbeats_ + dueTicks(heartbeat_, dueBy());
    }
    [[nodiscard]] std::uint64_t panicsLogged() const { return panicsLogged_; }
    [[nodiscard]] std::uint64_t bootsLogged() const { return bootsLogged_; }
    /// Ticks of the Running Applications Detector, which counts them and
    /// writes nothing.
    [[nodiscard]] std::uint64_t snapshotsTaken() const {
        return snapshots_ + dueTicks(runapp_, dueBy());
    }
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
               aos_.capacity() * sizeof(void*) +
               aos_.size() * sizeof(symbos::FunctionAo) +
               timers_.capacity() * sizeof(void*) +
               timers_.size() * sizeof(symbos::RTimer);
    }

private:
    /// One periodic duty: its AO's name, its period, and (while the
    /// daemon derives its ticks) the time of the next tick not yet run.
    struct Cadence {
        const char* name;
        sim::Duration period;
        sim::TimePoint next{};
    };

    void onBoot();
    void onShutdown(phone::ShutdownKind kind);
    void onPanic(const symbos::PanicEvent& event);
    /// Writes the derived ticks due, then stops the daemon's ticks.
    void teardownDaemon();
    [[nodiscard]] ActivityContext currentActivityContext() const;

    /// The heartbeat's writer, shared by its AO body and the catch-up.
    /// `at` is the beat's simulated time; it is stamped with the device
    /// clock's reading at `at`.
    void writeBeat(BeatKind kind, sim::TimePoint at);
    /// Runs one AO tick of `duty` at `at`: an ALIVE beat for the
    /// heartbeat, a count for the runapp detector, nothing for the others.
    void runTick(const Cadence& duty, sim::TimePoint at);

    /// Runs the device's due battery ticks, then writes the derived ticks
    /// due by dueBy().
    void catchUp();
    /// Counts every derived tick due by `last` and writes the last due
    /// beat, and the first too where a plane sees it.  A frozen phone's
    /// ticks stopped at the freeze, whose sync wrote the ones before it.
    void writeDueTicks(sim::TimePoint last);
    /// True where a beat written now and overwritten before the next read
    /// still shows: a device clock counts its read, or a write fault is
    /// armed against the beats file.
    [[nodiscard]] bool planeSeesBeats() const;
    /// The last instant whose ticks are due.  Inside an event at t a tick
    /// at t is not due yet: in the AO model it runs after the events
    /// already queued for t, so it sees the change the sync precedes.
    /// Between events it has run.
    [[nodiscard]] sim::TimePoint dueBy() const;
    /// Ticks of `cadence` due by `last` and not yet written.
    [[nodiscard]] std::uint64_t dueTicks(const Cadence& cadence,
                                         sim::TimePoint last) const;

    /// Creates `duty`'s self-re-arming AO driven by an RTimer, first due
    /// at `duty.next`.
    void startAo(const Cadence& duty);

    phone::PhoneDevice* device_;
    LoggerConfig config_;
    bool enabled_{true};
    bool ticksObserved_{false};

    Cadence heartbeat_;
    Cadence runapp_;
    Cadence logEngine_;
    Cadence power_;
    /// The four cadences, longest period first, ties in the order above:
    /// the AOs are armed in this order, so same-instant AO ticks dispatch
    /// in it, because each timer was armed one period before the instant.
    std::array<Cadence*, 4> byPeriod_;

    // Per-boot daemon state: real AOs, or cadences while deriving_.
    symbos::ProcessId daemonPid_{0};
    std::vector<std::unique_ptr<symbos::FunctionAo>> aos_;
    std::vector<std::unique_ptr<symbos::RTimer>> timers_;
    bool deriving_{false};
    /// heartbeats_ after the daemon's boot beat: each heartbeat tick since
    /// allocated one scratch cell from the daemon's heap.
    std::uint64_t heartbeatsAtStart_{0};
    /// Format buffer reused by every beat.
    std::string line_;

    std::uint64_t heartbeats_{0};
    std::uint64_t panicsLogged_{0};
    std::uint64_t bootsLogged_{0};
    std::uint64_t snapshots_{0};
    std::uint64_t tornBeatTails_{0};
    std::uint64_t malformedBeatLines_{0};
    std::uint64_t daemonDeaths_{0};
};

}  // namespace symfail::logger
