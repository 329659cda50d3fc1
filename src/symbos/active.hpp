// Active objects and the active scheduler — Symbian's upper level of
// multitasking.
//
// Within a thread, cooperative "active objects" (AOs) handle completed
// asynchronous requests under a non-preemptive, event-driven scheduler.
// Symbian orders ready AOs by priority; the model dispatches each
// completion as its own simulator event, in time order, so it keeps no
// priorities.  The model reproduces the two classic failure modes:
//   * a completion signal arriving for an AO that is not active
//       -> E32USER-CBase 46 (stray signal)
//   * RunL() leaving with the default Error() handler installed
//       -> E32USER-CBase 47
// and feeds each dispatch's simulated execution cost to the kernel's
// ViewSrv watchdog, which panics monopolizing applications (ViewSrv 11).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "simkernel/simulator.hpp"
#include "symbos/kernel.hpp"

namespace symfail::symbos {

class ActiveScheduler;

/// Base class for active objects (Symbian's CActive).
class ActiveObject {
public:
    ActiveObject(ActiveScheduler& scheduler, std::string name);
    virtual ~ActiveObject();
    ActiveObject(const ActiveObject&) = delete;
    ActiveObject& operator=(const ActiveObject&) = delete;

    /// Marks an asynchronous request as issued; the next completion will
    /// dispatch runL().
    void setActive() { active_ = true; }
    [[nodiscard]] bool isActive() const { return active_; }

    /// Cancels any outstanding request (Symbian's Cancel()).
    void cancel();

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] ActiveScheduler& scheduler() { return *scheduler_; }
    /// True once the owning scheduler has been destroyed (process teardown
    /// raced the AO's owner); the AO is inert from then on.
    [[nodiscard]] bool detached() const { return scheduler_ == nullptr; }

protected:
    /// Handles a completed request; `status` is the completion code.  May
    /// leave; an untrapped leave reaches the scheduler's error handler.
    virtual void runL(ExecContext& ctx, int status) = 0;
    /// Cancels the outstanding request at its source.
    virtual void doCancel() {}

private:
    friend class ActiveScheduler;
    ActiveScheduler* scheduler_;
    std::string name_;
    bool active_{false};
    sim::EventId pendingDispatch_{};
    // The latest completion (Symbian's iStatus) and its runL() cost; the
    // dispatch reads them, so a second completion overwrites the first.
    int status_{0};
    sim::Duration runCost_{};
};

/// Per-process active scheduler (Symbian's CActiveScheduler).
class ActiveScheduler {
public:
    ActiveScheduler(Kernel& kernel, ProcessId pid);
    ~ActiveScheduler();
    ActiveScheduler(const ActiveScheduler&) = delete;
    ActiveScheduler& operator=(const ActiveScheduler&) = delete;

    /// Options for completing a request.
    struct CompleteOpts {
        /// Delay before the completion is dispatched.
        sim::Duration delay{};
        /// Simulated execution cost of the runL() body, reported to the
        /// ViewSrv watchdog.
        sim::Duration runCost{};
    };

    /// Completes an asynchronous request on `ao` with `code`.  Dispatch
    /// happens as a simulator event; if the AO is not active at dispatch
    /// time the scheduler panics the process with a stray signal
    /// (E32USER-CBase 46).  As with User::RequestComplete, the code is
    /// stored on the AO and read at dispatch: completing twice before the
    /// dispatch runs runL() once, with the second code, and the second
    /// dispatch is a stray signal.
    void complete(ActiveObject& ao, int code);
    void complete(ActiveObject& ao, int code, CompleteOpts opts);

    /// Error handler invoked when runL() leaves.  Returns true when the
    /// error was handled; the default implementation returns false, which
    /// panics the process with E32USER-CBase 47 — exactly the behaviour
    /// of CActiveScheduler::Error().
    using ErrorHandler = std::function<bool(ExecContext&, int leaveCode)>;
    void setErrorHandler(ErrorHandler handler) { errorHandler_ = std::move(handler); }

    [[nodiscard]] Kernel& kernel() { return *kernel_; }
    [[nodiscard]] std::size_t registeredCount() const { return objects_.size(); }

private:
    friend class ActiveObject;
    void add(ActiveObject* ao);
    void remove(ActiveObject* ao);
    void dispatch(ActiveObject* ao);

    Kernel* kernel_;
    ProcessId pid_;
    std::vector<ActiveObject*> objects_;
    ErrorHandler errorHandler_;
};

}  // namespace symfail::symbos
