#include "symbos/kernel.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "symbos/active.hpp"
#include "symbos/cleanup.hpp"
#include "symbos/heap.hpp"

namespace symfail::symbos {

std::string_view toString(ProcessKind k) {
    switch (k) {
        case ProcessKind::UserApp: return "user-app";
        case ProcessKind::SystemServer: return "system-server";
        case ProcessKind::UiServer: return "ui-server";
        case ProcessKind::CoreApp: return "core-app";
        case ProcessKind::KernelCritical: return "kernel-critical";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Process record

struct Kernel::Process {
    ProcessId pid;
    std::string name;
    ProcessKind kind;
    bool alive{true};
    bool hasView{false};
    CleanupStack cleanup;
    HeapModel heap;
    std::unique_ptr<ActiveScheduler> scheduler;
};

// ---------------------------------------------------------------------------
// ExecContext

CleanupStack& ExecContext::cleanupStack() const {
    return kernel_->processRef(pid_).cleanup;
}

void ExecContext::panic(PanicId id, std::string diagnostic) const {
    throw PanicSignal{id, std::move(diagnostic)};
}

void ExecContext::leave(int code) const {
    throw LeaveError{code};
}

// ---------------------------------------------------------------------------
// ObjectIndex

ObjectIndex::Handle ObjectIndex::open(const ExecContext& ctx, std::string name) {
    const Handle h = next_++;
    objects_.emplace(h, Entry{std::move(name), ctx.pid()});
    return h;
}

const std::string& ObjectIndex::lookupName(const ExecContext& ctx, Handle h) const {
    const auto it = objects_.find(h);
    if (it == objects_.end()) {
        ctx.panic(kKernExecBadHandle,
                  "object index lookup failed for raw handle " + std::to_string(h));
    }
    return it->second.name;
}

void ObjectIndex::close(const ExecContext& ctx, Handle h) {
    const auto it = objects_.find(h);
    if (it == objects_.end()) {
        ctx.panic(kKernSvrBadHandleClose,
                  "kernel server cannot close unknown handle " + std::to_string(h));
    }
    objects_.erase(it);
}

void ObjectIndex::dropOwnedBy(ProcessId pid) {
    for (auto it = objects_.begin(); it != objects_.end();) {
        if (it->second.owner == pid) {
            it = objects_.erase(it);
        } else {
            ++it;
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel

Kernel::Kernel(sim::Simulator& simulator) : simulator_{&simulator} {}

Kernel::~Kernel() = default;

ProcessId Kernel::createProcess(std::string name, ProcessKind kind) {
    const ProcessId pid = nextPid_++;
    auto p = std::make_unique<Process>();
    p->pid = pid;
    p->name = std::move(name);
    p->kind = kind;
    p->scheduler = std::make_unique<ActiveScheduler>(*this, pid);
    processes_.emplace(pid, std::move(p));
    return pid;
}

Kernel::Process& Kernel::processRef(ProcessId pid) {
    const auto it = processes_.find(pid);
    if (it == processes_.end()) {
        throw std::logic_error("no such process: " + std::to_string(pid));
    }
    return *it->second;
}

const Kernel::Process& Kernel::processRef(ProcessId pid) const {
    const auto it = processes_.find(pid);
    if (it == processes_.end()) {
        throw std::logic_error("no such process: " + std::to_string(pid));
    }
    return *it->second;
}

void Kernel::killProcess(ProcessId pid, TerminationReason reason) {
    const auto it = processes_.find(pid);
    if (it == processes_.end() || !it->second->alive) return;
    terminate(*it->second, reason);
}

bool Kernel::alive(ProcessId pid) const {
    const auto it = processes_.find(pid);
    return it != processes_.end() && it->second->alive;
}

std::string_view Kernel::processName(ProcessId pid) const {
    return processRef(pid).name;
}

ProcessKind Kernel::processKind(ProcessId pid) const {
    return processRef(pid).kind;
}

void Kernel::shutdownAll() {
    for (auto& [pid, p] : processes_) {
        if (p->alive) terminate(*p, TerminationReason::DeviceShutdown);
    }
    processes_.clear();
}

void Kernel::terminate(Process& p, TerminationReason reason) {
    p.alive = false;
    objectIndex_.dropOwnedBy(p.pid);
    for (const auto& hook : terminationHooks_) {
        hook(p.pid, p.name, reason);
    }
}

void Kernel::deliverUntrappedLeave(ProcessId pid, int code) {
    // An untrapped leave escaping a thread function: no trap handler was
    // installed, which Symbian reports as E32USER-CBase 69.
    deliverPanic(pid, kCBaseNoTrapHandler,
                 "untrapped leave with code " + std::to_string(code));
}

void Kernel::deliverPanic(ProcessId pid, const PanicId& id, std::string diagnostic) {
    Process& p = processRef(pid);
    PanicEvent event{simulator_->now(), id, p.name, std::move(diagnostic)};
    // Snapshot the execution context while the process is still intact —
    // the raw material for the logger's structured crash dumps.
    event.cleanupDepth = p.cleanup.depth();
    event.trapActive = p.cleanup.trapActive();
    event.schedulerAoCount = p.scheduler->registeredCount();
    event.heapLiveCells = p.heap.liveCount();
    event.heapBytesInUse = p.heap.bytesInUse();
    event.heapTotalAllocs = p.heap.totalAllocs();
    if (auto* trace = simulator_->traceSink()) {
        const std::string panicName = toString(id);
        const obs::TraceArg args[] = {
            {"panic", panicName},
            {"process", event.processName},
            {"kind", toString(p.kind)},
        };
        trace->instant(traceTrack_, "symbos", "panic", event.time, args);
    }
    for (const auto& hook : panicHooks_) {
        hook(event);
    }
    terminate(p, TerminationReason::Panicked);

    // Recovery policy: the kernel decides between letting the device
    // continue, rebooting it (core applications, kernel-critical servers)
    // and — for the UI pipeline — leaving it unresponsive.
    switch (p.kind) {
        case ProcessKind::UserApp:
        case ProcessKind::SystemServer:
            break;
        case ProcessKind::CoreApp:
        case ProcessKind::KernelCritical:
            if (actionHandler_) actionHandler_(KernelAction::RebootDevice, event);
            break;
        case ProcessKind::UiServer:
            if (actionHandler_) actionHandler_(KernelAction::FreezeDevice, event);
            break;
    }
}

ActiveScheduler& Kernel::schedulerOf(ProcessId pid) {
    return *processRef(pid).scheduler;
}

HeapModel& Kernel::heapOf(ProcessId pid) {
    return processRef(pid).heap;
}

void Kernel::registerView(ProcessId pid) {
    processRef(pid).hasView = true;
}

bool Kernel::hasView(ProcessId pid) const {
    const auto it = processes_.find(pid);
    return it != processes_.end() && it->second->hasView;
}

void Kernel::reportDispatchCost(ProcessId pid, sim::Duration cost) {
    if (!alive(pid)) return;
    if (hasView(pid) && cost > kViewSrvTimeout) {
        deliverPanic(pid, kViewSrvEventStarvation,
                     "active object monopolized the scheduler for " + cost.str());
    }
}

void Kernel::addPanicHook(PanicHook hook) {
    panicHooks_.push_back(std::move(hook));
}

void Kernel::addTerminationHook(TerminationHook hook) {
    terminationHooks_.push_back(std::move(hook));
}

void Kernel::setActionHandler(ActionHook handler) {
    actionHandler_ = std::move(handler);
}

HeapModel& ExecContext::heap() const {
    return kernel_->processRef(pid_).heap;
}

std::size_t Kernel::approxMemoryBytes() const {
    constexpr std::size_t hashNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    for (const auto& [pid, process] : processes_) {
        total += hashNode + sizeof(Process) + process->name.size();
        if (process->scheduler != nullptr) total += sizeof(ActiveScheduler);
    }
    return total;
}

}  // namespace symfail::symbos
