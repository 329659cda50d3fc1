// Mechanism drivers: one per Table 2 panic.
//
// Each driver runs real model code in the victim process that ends in the
// target panic — a bad handle lookup, a descriptor overflow, a stray
// signal, a monopolizing active object — rather than fabricating a panic
// record.  The panic therefore flows through the full kernel path:
// delivery, RDebug-style hooks (where the logger sees it), process
// termination, and the recovery policy that may freeze or reboot the
// device.
#pragma once

#include <memory>
#include <vector>

#include "phone/device.hpp"
#include "symbos/active.hpp"
#include "symbos/panic.hpp"
#include "symbos/timer.hpp"

namespace symfail::faults {

/// Holds async artefacts (active objects, timers) created by drivers whose
/// panic fires on a later dispatch.  Cleared on device power-down.
struct AsyncBag {
    std::vector<std::unique_ptr<symbos::ActiveObject>> aos;
    std::vector<std::unique_ptr<symbos::RTimer>> timers;
    void clear() {
        timers.clear();
        aos.clear();
    }
};

/// Runs the code path that raises `id` in `victim`.  Synchronous panics
/// are delivered before this returns; async ones (stray signal, scheduler
/// error, timer, ViewSrv) are delivered on the next dispatch.
void driveMechanism(phone::PhoneDevice& device, symbos::ProcessId victim,
                    symbos::PanicId id, AsyncBag& bag);

}  // namespace symfail::faults
