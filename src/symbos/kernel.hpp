// The Symbian OS kernel model.
//
// Symbian is a hard real-time microkernel: all system services run as
// server processes, clients talk to them via kernel message passing, and a
// non-recoverable error in any component is signalled to the kernel as a
// *panic*.  The kernel then applies its recovery policy: terminate the
// offending process, or reboot the device when the panicking component is a
// core application (Phone.app, the message server) or kernel-critical.
//
// This model reproduces those mechanisms functionally.  Application and
// system code runs inside `runInProcess`, which provides an `ExecContext`
// handle to kernel services.  Every panic path in the model (bad handles,
// descriptor overflows, stray signals, …) throws a `PanicSignal` that the
// kernel catches at the `runInProcess` boundary, records, reports to
// subscribed panic hooks (the paper's logger subscribes here, standing in
// for Symbian's RDebug facility), and resolves per the recovery policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simkernel/simulator.hpp"
#include "simkernel/time.hpp"
#include "symbos/panic.hpp"

namespace symfail::symbos {

class Kernel;
class ActiveScheduler;
class CleanupStack;
class HeapModel;

/// Process identifier; 0 is never a valid id.
using ProcessId = std::uint32_t;

/// How the kernel treats a process when it panics.
enum class ProcessKind : std::uint8_t {
    UserApp,         ///< Third-party/user application: terminated, device survives.
    SystemServer,    ///< System server: terminated; device survives but may degrade.
    UiServer,        ///< Window/UI pipeline server: its death freezes the device.
    CoreApp,         ///< Core application (Phone.app, message server): kernel reboots.
    KernelCritical,  ///< Kernel-side component: kernel reboots.
};

[[nodiscard]] std::string_view toString(ProcessKind k);

/// Why a process was torn down.
enum class TerminationReason : std::uint8_t {
    Panicked,
    Killed,          ///< Explicitly killed (e.g. app closed by the user).
    DeviceShutdown,  ///< Device powering off; all processes die.
};

/// Why the kernel asked the device layer to restart/halt.
enum class KernelAction : std::uint8_t {
    RebootDevice,  ///< Self-shutdown followed by automatic restart.
    FreezeDevice,  ///< UI pipeline dead: device stops responding.
};

/// A recorded panic occurrence (kernel-side ground truth; also what panic
/// hooks receive).  Beyond the identity fields, the kernel snapshots the
/// panicking process's execution context at delivery time — the raw
/// material for structured crash dumps (crash/dump.hpp).
struct PanicEvent {
    sim::TimePoint time;
    PanicId id;
    std::string processName;
    std::string diagnostic;
    // Capture context (filled by deliverPanic before hooks run).
    std::size_t cleanupDepth{0};
    bool trapActive{false};
    std::size_t schedulerAoCount{0};
    std::uint64_t heapLiveCells{0};
    std::uint64_t heapBytesInUse{0};
    std::uint64_t heapTotalAllocs{0};
};

/// Thrown by model code to signal a panic; caught at the kernel boundary.
/// Application code never catches this (mirrors real panics, which are not
/// catchable in-process).
struct PanicSignal {
    PanicId id;
    std::string diagnostic;
};

/// Thrown by `leave`; the model's equivalent of User::Leave().
struct LeaveError {
    int code;
};

/// Per-call handle through which model code reaches kernel services.
/// Only valid during the `runInProcess` invocation that created it.
class ExecContext {
public:
    [[nodiscard]] ProcessId pid() const { return pid_; }

    /// The calling process's cleanup stack.
    [[nodiscard]] CleanupStack& cleanupStack() const;

    /// The calling process's heap model.
    [[nodiscard]] HeapModel& heap() const;

    /// Raises a panic in the current process; does not return.
    [[noreturn]] void panic(PanicId id, std::string diagnostic) const;

    /// Leaves with an error code (Symbian's User::Leave).  If no trap is
    /// active, the kernel converts this to an E32USER-CBase 69 panic.
    [[noreturn]] void leave(int code) const;

private:
    friend class Kernel;
    ExecContext(Kernel& kernel, ProcessId pid) : kernel_{&kernel}, pid_{pid} {}
    Kernel* kernel_;
    ProcessId pid_;
};

/// Kernel-side object index: maps raw handle numbers to kernel objects.
/// Looking up an unknown handle from the executive path raises KERN-EXEC 0;
/// asking the kernel *server* to close an unknown handle raises KERN-SVR 0.
class ObjectIndex {
public:
    /// Handle numbers; 0 is never valid.
    using Handle = std::int32_t;

    /// Creates a kernel object owned by the calling process.
    Handle open(const ExecContext& ctx, std::string name);

    /// Executive-path lookup; panics with KERN-EXEC 0 when absent.
    [[nodiscard]] const std::string& lookupName(const ExecContext& ctx, Handle h) const;

    /// Kernel-server close; panics with KERN-SVR 0 when absent.
    void close(const ExecContext& ctx, Handle h);

    [[nodiscard]] bool contains(Handle h) const { return objects_.contains(h); }
    [[nodiscard]] std::size_t size() const { return objects_.size(); }

    /// Drops every object owned by `pid` (process teardown).
    void dropOwnedBy(ProcessId pid);

private:
    struct Entry {
        std::string name;
        ProcessId owner;
    };
    std::unordered_map<Handle, Entry> objects_;
    Handle next_{1};
};

/// ViewSrv watchdog: a dispatch monopolizing the active scheduler longer
/// than this, in a process with a registered view, panics with ViewSrv 11.
inline constexpr sim::Duration kViewSrvTimeout = sim::Duration::seconds(10);

/// The kernel.  One instance per simulated phone; survives reboots (the
/// device layer calls `shutdownAll` on power-off and re-creates processes
/// on boot, as firmware does).
class Kernel {
public:
    explicit Kernel(sim::Simulator& simulator);
    ~Kernel();
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }

    /// Trace track this kernel's events land on (the owning phone's track;
    /// the device layer sets it once at construction).  Track 0 ("sim") is
    /// the fallback for kernels nobody claimed.
    void setTraceTrack(std::uint32_t track) { traceTrack_ = track; }
    [[nodiscard]] std::uint32_t traceTrack() const { return traceTrack_; }

    // -- Process lifecycle ------------------------------------------------

    ProcessId createProcess(std::string name, ProcessKind kind);
    /// Terminates a process without a panic (user closed the app, …).
    void killProcess(ProcessId pid, TerminationReason reason);
    [[nodiscard]] bool alive(ProcessId pid) const;
    [[nodiscard]] std::string_view processName(ProcessId pid) const;
    [[nodiscard]] ProcessKind processKind(ProcessId pid) const;

    /// Tears down every process (device power-off).  Termination hooks run
    /// with reason DeviceShutdown.
    void shutdownAll();

    /// Suspends all scheduling (a frozen device): `runInProcess` becomes a
    /// no-op, so active objects stop dispatching and periodic services
    /// (like the logger's heartbeat) go quiet — which is precisely the
    /// signal freeze detection relies on.
    void setSuspended(bool suspended) { suspended_ = suspended; }
    [[nodiscard]] bool suspended() const { return suspended_; }

    // -- Running code -----------------------------------------------------

    enum class RunOutcome : std::uint8_t { Completed, Panicked, NoSuchProcess };

    /// Runs `body`, any callable taking `ExecContext&`, in the context of
    /// `pid`.  Panics and untrapped leaves are caught here, recorded, and
    /// resolved per the recovery policy.  The body is called in place,
    /// never wrapped in a std::function, so the call allocates nothing.
    template <typename Body>
    RunOutcome runInProcess(ProcessId pid, Body&& body);

    // -- Kernel services --------------------------------------------------

    [[nodiscard]] ObjectIndex& objectIndex() { return objectIndex_; }
    /// The active scheduler of a live process.
    [[nodiscard]] ActiveScheduler& schedulerOf(ProcessId pid);
    /// The heap model of a live process.  Fault planes use this to apply
    /// memory pressure to a victim process from outside it.
    [[nodiscard]] HeapModel& heapOf(ProcessId pid);

    /// ViewSrv: registers a view for a process, enabling the watchdog.
    void registerView(ProcessId pid);
    [[nodiscard]] bool hasView(ProcessId pid) const;
    /// Called by the active scheduler after each dispatch with its
    /// simulated execution cost; enforces the ViewSrv watchdog.
    void reportDispatchCost(ProcessId pid, sim::Duration cost);

    // -- Observation hooks --------------------------------------------------

    using PanicHook = std::function<void(const PanicEvent&)>;
    using TerminationHook =
        std::function<void(ProcessId, const std::string& name, TerminationReason)>;
    using ActionHook = std::function<void(KernelAction, const PanicEvent&)>;

    /// Subscribes to every panic (the RDebug stand-in the logger uses).
    void addPanicHook(PanicHook hook);
    void addTerminationHook(TerminationHook hook);
    /// Receives reboot/freeze requests resulting from critical panics; the
    /// device layer implements them.
    void setActionHandler(ActionHook handler);

    /// Approximate heap footprint of the kernel's process table; derived
    /// from container sizes, deterministic per campaign.
    [[nodiscard]] std::size_t approxMemoryBytes() const;

private:
    struct Process;

    Process& processRef(ProcessId pid);
    [[nodiscard]] const Process& processRef(ProcessId pid) const;
    void terminate(Process& p, TerminationReason reason);
    void deliverPanic(ProcessId pid, const PanicId& id, std::string diagnostic);
    /// A leave escaped a `runInProcess` body with no trap installed.
    void deliverUntrappedLeave(ProcessId pid, int code);

    friend class ExecContext;

    sim::Simulator* simulator_;
    std::uint32_t traceTrack_{0};
    std::unordered_map<ProcessId, std::unique_ptr<Process>> processes_;
    ProcessId nextPid_{1};
    ObjectIndex objectIndex_;
    std::vector<PanicHook> panicHooks_;
    std::vector<TerminationHook> terminationHooks_;
    ActionHook actionHandler_;
    bool suspended_{false};
};

template <typename Body>
Kernel::RunOutcome Kernel::runInProcess(ProcessId pid, Body&& body) {
    if (suspended_ || !alive(pid)) return RunOutcome::NoSuchProcess;
    ExecContext ctx{*this, pid};
    try {
        body(ctx);
        return RunOutcome::Completed;
    } catch (const PanicSignal& p) {
        deliverPanic(pid, p.id, p.diagnostic);
        return RunOutcome::Panicked;
    } catch (const LeaveError& l) {
        deliverUntrappedLeave(pid, l.code);
        return RunOutcome::Panicked;
    }
}

}  // namespace symfail::symbos
