#include "symbos/timer.hpp"

#include "symbos/err.hpp"

namespace symfail::symbos {

void RTimer::after(const ExecContext& ctx, sim::Duration delay) {
    if (outstanding_) {
        ctx.panic(kCBaseTimerOutstanding,
                  "timer event requested while one is already outstanding");
    }
    outstanding_ = true;
    client_->setActive();
    pending_ = simulator_->scheduleAfter(delay, "symbos.timer", [this]() {
        outstanding_ = false;
        pending_ = {};
        if (client_->detached()) return;  // process torn down meanwhile
        client_->scheduler().complete(*client_, KErrNone);
    });
}

void RTimer::cancel() {
    if (!outstanding_) return;
    outstanding_ = false;
    if (pending_.valid()) {
        simulator_->cancel(pending_);
        pending_ = {};
    }
}

}  // namespace symfail::symbos
