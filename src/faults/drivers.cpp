#include "faults/drivers.hpp"

#include <stdexcept>
#include <string>

#include "symbos/cleanup.hpp"
#include "symbos/cobject.hpp"
#include "symbos/descriptor.hpp"
#include "symbos/err.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/ipc.hpp"
#include "symbos/uiframework.hpp"

namespace symfail::faults {

using namespace symfail::symbos;

namespace {

/// Shorthand: run `body` in the victim; the panic it raises is absorbed by
/// the kernel boundary.
void run(phone::PhoneDevice& device, ProcessId victim,
         const std::function<void(ExecContext&)>& body) {
    device.kernel().runInProcess(victim, body);
}

}  // namespace

void driveMechanism(phone::PhoneDevice& device, ProcessId victim, PanicId id,
                    AsyncBag& bag) {
    Kernel& kernel = device.kernel();
    if (!kernel.alive(victim)) return;

    if (id == kKernExecBadHandle) {
        run(device, victim, [&](ExecContext& ctx) {
            (void)kernel.objectIndex().lookupName(ctx, 0x7FFFFFF0);
        });
    } else if (id == kKernExecAccessViolation) {
        // The model has no raw memory, so the unhandled-CPU-exception path
        // is entered directly: this is the one panic whose trigger cannot
        // be reproduced mechanically without an MMU.
        run(device, victim, [&](ExecContext& ctx) {
            ctx.panic(kKernExecAccessViolation,
                      "unhandled exception: access violation dereferencing NULL");
        });
    } else if (id == kCBaseTimerOutstanding) {
        auto& scheduler = kernel.schedulerOf(victim);
        auto ao = std::make_unique<FunctionAo>(scheduler, "fault-timer-client",
                                               [](ExecContext&, int) {});
        auto timer = std::make_unique<RTimer>(*ao);
        auto* timerPtr = timer.get();
        bag.aos.push_back(std::move(ao));
        bag.timers.push_back(std::move(timer));
        run(device, victim, [&](ExecContext& ctx) {
            timerPtr->after(ctx, sim::Duration::hours(1));
            timerPtr->after(ctx, sim::Duration::hours(1));  // panics: outstanding
        });
    } else if (id == kCBaseObjectRefCount) {
        run(device, victim, [&](ExecContext& ctx) {
            CObjectModel object{"shared-session"};
            object.open();  // leaked reference
            object.destroyCheck(ctx);
        });
    } else if (id == kCBaseStraySignal) {
        auto& scheduler = kernel.schedulerOf(victim);
        auto ao = std::make_unique<FunctionAo>(scheduler, "fault-stray",
                                               [](ExecContext&, int) {});
        // Completing without setActive(): the dispatch finds an inactive
        // object and the scheduler panics with a stray signal.
        scheduler.complete(*ao, KErrNone);
        bag.aos.push_back(std::move(ao));
    } else if (id == kCBaseSchedulerError) {
        auto& scheduler = kernel.schedulerOf(victim);
        auto ao = std::make_unique<FunctionAo>(
            scheduler, "fault-leaver",
            [](ExecContext& ctx, int) { ctx.leave(KErrGeneral); });
        ao->setActive();
        scheduler.complete(*ao, KErrNone);
        bag.aos.push_back(std::move(ao));
    } else if (id == kCBaseNoTrapHandler) {
        run(device, victim, [&](ExecContext& ctx) {
            ctx.cleanupStack().pushL(ctx, []() {});  // no trap installed
        });
    } else if (id == kCBaseUndocumented91) {
        run(device, victim, [&](ExecContext& ctx) {
            trap(ctx, [](ExecContext& inner) {
                inner.cleanupStack().pushL(inner, []() {});
                // returns without popping: unbalanced trap frame
            });
        });
    } else if (id == kCBaseUndocumented92) {
        run(device, victim, [&](ExecContext& ctx) {
            trap(ctx, [](ExecContext& inner) {
                inner.cleanupStack().popAndDestroy(inner);  // underflow
            });
        });
    } else if (id == kUserDesIndexOutOfRange) {
        run(device, victim, [&](ExecContext& ctx) {
            Descriptor text{32};
            text.copy(ctx, "short");
            (void)text.mid(ctx, 10, 4);  // position out of bounds
        });
    } else if (id == kUserDesOverflow) {
        run(device, victim, [&](ExecContext& ctx) {
            Descriptor buffer{8};
            buffer.copy(ctx, "this payload exceeds the maximum length");
        });
    } else if (id == kUserNullMessageComplete) {
        run(device, victim, [&](ExecContext& ctx) {
            Message orphan = Message::orphan(7);
            orphan.complete(ctx, KErrNone);
        });
    } else if (id == kKernSvrBadHandleClose) {
        run(device, victim, [&](ExecContext& ctx) {
            kernel.objectIndex().close(ctx, 0x7FFFFFF1);
        });
    } else if (id == kViewSrvEventStarvation) {
        kernel.registerView(victim);
        auto& scheduler = kernel.schedulerOf(victim);
        auto ao = std::make_unique<FunctionAo>(scheduler, "fault-monopolizer",
                                               [](ExecContext&, int) {
                                                   // simulated long-running RunL;
                                                   // cost carried by CompleteOpts
                                               });
        ao->setActive();
        scheduler.complete(*ao, KErrNone,
                           ActiveScheduler::CompleteOpts{
                               sim::Duration{},
                               kViewSrvTimeout * 3});
        bag.aos.push_back(std::move(ao));
    } else if (id == kListboxBadItemIndex) {
        run(device, victim, [&](ExecContext& ctx) {
            ListboxModel listbox;
            listbox.setView();
            listbox.setItemCount(3);
            listbox.setCurrentItemIndex(ctx, 7);
        });
    } else if (id == kListboxNoView) {
        run(device, victim, [&](ExecContext& ctx) {
            ListboxModel listbox;
            listbox.setItemCount(3);
            listbox.draw(ctx);
        });
    } else if (id == kPhoneAppInternal) {
        run(device, victim, [&](ExecContext& ctx) {
            ctx.panic(kPhoneAppInternal, "Phone.app internal state error");
        });
    } else if (id == kEikcoctlCorruptEdwin) {
        run(device, victim, [&](ExecContext& ctx) {
            EdwinModel edwin;
            edwin.corruptInlineState();
            edwin.inlineEdit(ctx);
        });
    } else if (id == kMsgsClientWriteFailed) {
        run(device, victim, [&](ExecContext& ctx) {
            ctx.panic(kMsgsClientWriteFailed,
                      "failed to write data into asynchronous call descriptor");
        });
    } else if (id == kMmfAudioBadVolume) {
        run(device, victim, [&](ExecContext& ctx) {
            AudioClientModel audio;
            audio.setVolume(ctx, 10);
        });
    } else {
        throw std::logic_error("no driver for panic " + toString(id));
    }
}

}  // namespace symfail::faults
