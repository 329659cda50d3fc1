#include "symbos/active.hpp"

#include <algorithm>

namespace symfail::symbos {

ActiveObject::ActiveObject(ActiveScheduler& scheduler, std::string name)
    : scheduler_{&scheduler}, name_{std::move(name)} {
    scheduler_->add(this);
}

ActiveObject::~ActiveObject() {
    cancel();
    if (scheduler_ != nullptr) scheduler_->remove(this);
}

void ActiveObject::cancel() {
    if (pendingDispatch_.valid() && scheduler_ != nullptr) {
        scheduler_->kernel().simulator().cancel(pendingDispatch_);
    }
    pendingDispatch_ = {};
    if (active_) {
        doCancel();
        active_ = false;
    }
}

ActiveScheduler::ActiveScheduler(Kernel& kernel, ProcessId pid)
    : kernel_{&kernel}, pid_{pid} {}

ActiveScheduler::~ActiveScheduler() {
    // AOs outliving their scheduler (e.g. owned by a component torn down
    // after the kernel) must not touch it again: cancel their pending
    // dispatches and detach them.
    for (ActiveObject* ao : objects_) {
        if (ao->pendingDispatch_.valid()) {
            kernel_->simulator().cancel(ao->pendingDispatch_);
            ao->pendingDispatch_ = {};
        }
        ao->active_ = false;
        ao->scheduler_ = nullptr;
    }
}

void ActiveScheduler::add(ActiveObject* ao) {
    objects_.push_back(ao);
}

void ActiveScheduler::remove(ActiveObject* ao) {
    objects_.erase(std::remove(objects_.begin(), objects_.end(), ao), objects_.end());
}

void ActiveScheduler::complete(ActiveObject& ao, int code) {
    complete(ao, code, CompleteOpts{});
}

void ActiveScheduler::complete(ActiveObject& ao, int code, CompleteOpts opts) {
    ao.status_ = code;
    ao.runCost_ = opts.runCost;
    // Two pointers fit std::function's inline buffer: no allocation.
    ao.pendingDispatch_ = kernel_->simulator().scheduleAfter(
        opts.delay, "symbos.ao", [this, ao = &ao]() { dispatch(ao); });
}

void ActiveScheduler::dispatch(ActiveObject* ao) {
    ao->pendingDispatch_ = {};
    // The status, the cost and the trace span are all taken before RunL:
    // the AO (and its name) may not survive dispatch.
    const int code = ao->status_;
    const sim::Duration runCost = ao->runCost_;
    if (auto* trace = kernel_->simulator().traceSink()) {
        const obs::TraceArg args[] = {{"code", code}};
        trace->span(kernel_->traceTrack(), "symbos.ao", ao->name(),
                    kernel_->simulator().now(), runCost, args);
    }
    const auto outcome = kernel_->runInProcess(pid_, [&](ExecContext& ctx) {
        if (!ao->isActive()) {
            ctx.panic(kCBaseStraySignal,
                      "completion signal for inactive active object '" + ao->name() + "'");
        }
        ao->active_ = false;
        try {
            ao->runL(ctx, code);
        } catch (const LeaveError& leave) {
            // RunL left: route to the scheduler's Error() handler; the
            // default behaviour raises E32USER-CBase 47.
            if (!errorHandler_ || !errorHandler_(ctx, leave.code)) {
                ctx.panic(kCBaseSchedulerError,
                          "active object '" + ao->name() + "' RunL left with code " +
                              std::to_string(leave.code) +
                              " and Error() was not replaced");
            }
        }
    });
    if (outcome == Kernel::RunOutcome::Completed) {
        kernel_->reportDispatchCost(pid_, runCost);
    }
}

}  // namespace symfail::symbos
