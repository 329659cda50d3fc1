// Convenience active object dispatching to a std::function.
//
// Used by the logger's heartbeat and the fault drivers; real Symbian
// code subclasses CActive the same way, this just removes the boilerplate.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "symbos/active.hpp"

namespace symfail::symbos {

/// Active object whose RunL / DoCancel are provided as callables.
class FunctionAo final : public ActiveObject {
public:
    using RunFn = std::function<void(ExecContext&, int status)>;
    using CancelFn = std::function<void()>;

    FunctionAo(ActiveScheduler& scheduler, std::string name, RunFn run)
        : ActiveObject(scheduler, std::move(name)), run_{std::move(run)} {}

    void setCancelFn(CancelFn fn) { cancelFn_ = std::move(fn); }

protected:
    void runL(ExecContext& ctx, int status) override {
        if (run_) run_(ctx, status);
    }
    void doCancel() override {
        if (cancelFn_) cancelFn_();
    }

private:
    RunFn run_;
    CancelFn cancelFn_;
};

}  // namespace symfail::symbos
