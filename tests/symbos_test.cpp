// Unit tests for the Symbian OS model: every panic path, the kernel
// recovery policy, active objects, cleanup stack, descriptors, IPC,
// timers, and the system servers.
#include <gtest/gtest.h>

#include <vector>

#include "crash/dump.hpp"
#include "faults/drivers.hpp"
#include "logger/records.hpp"
#include "phone/device.hpp"
#include "simkernel/simulator.hpp"
#include "symbos/active.hpp"
#include "symbos/cleanup.hpp"
#include "symbos/cobject.hpp"
#include "symbos/descriptor.hpp"
#include "symbos/err.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/heap.hpp"
#include "symbos/ipc.hpp"
#include "symbos/kernel.hpp"
#include "symbos/panic.hpp"
#include "symbos/sysservers.hpp"
#include "symbos/timer.hpp"
#include "symbos/uiframework.hpp"

namespace symfail::symbos {
namespace {

/// Fixture with a kernel and a scratch user-app process.
class KernelFixture : public ::testing::Test {
protected:
    KernelFixture() : kernel_{simulator_} {
        pid_ = kernel_.createProcess("TestApp", ProcessKind::UserApp);
        kernel_.addPanicHook(
            [this](const PanicEvent& event) { panics_.push_back(event); });
    }

    /// Runs body in the scratch process and returns the panic it raised,
    /// if any.
    std::optional<PanicId> runExpectPanic(const std::function<void(ExecContext&)>& body) {
        const std::size_t before = panics_.size();
        const auto outcome = kernel_.runInProcess(pid_, body);
        if (outcome != Kernel::RunOutcome::Panicked) return std::nullopt;
        EXPECT_EQ(panics_.size(), before + 1);
        return panics_.back().id;
    }

    sim::Simulator simulator_;
    Kernel kernel_;
    ProcessId pid_{0};
    std::vector<PanicEvent> panics_;  ///< Every panic the kernel delivered.
};

// -- Panic taxonomy ------------------------------------------------------------

TEST(PanicTaxonomy, TableSharesSumTo100) {
    double total = 0.0;
    for (const auto& row : paperPanicTable()) total += row.paperPercent;
    EXPECT_NEAR(total, 100.0, 0.1);
}

TEST(PanicTaxonomy, TwentyDistinctRows) {
    const auto table = paperPanicTable();
    EXPECT_EQ(table.size(), 20u);
    for (std::size_t i = 0; i < table.size(); ++i) {
        for (std::size_t j = i + 1; j < table.size(); ++j) {
            EXPECT_NE(table[i].id, table[j].id);
        }
    }
}

TEST(PanicTaxonomy, DominantPanicIsAccessViolation) {
    const auto table = paperPanicTable();
    const auto* best = &table[0];
    for (const auto& row : table) {
        if (row.paperPercent > best->paperPercent) best = &row;
    }
    EXPECT_EQ(best->id, kKernExecAccessViolation);
    EXPECT_NEAR(best->paperPercent, 56.31, 0.01);
}

TEST(PanicTaxonomy, CategoryStringsRoundTrip) {
    for (std::size_t i = 0; i < kPanicCategoryCount; ++i) {
        const auto category = static_cast<PanicCategory>(i);
        EXPECT_EQ(parsePanicCategory(toString(category)), category);
    }
    EXPECT_FALSE(parsePanicCategory("BOGUS").has_value());
}

TEST(PanicTaxonomy, MeaningsDocumented) {
    EXPECT_NE(panicMeaning(kKernExecAccessViolation).find("access violation"),
              std::string_view::npos);
    EXPECT_NE(panicMeaning(kViewSrvEventStarvation).find("monopolizes"),
              std::string_view::npos);
    EXPECT_EQ(panicMeaning(kCBaseUndocumented91), "Not documented");
    EXPECT_EQ(panicMeaning(kPhoneAppInternal), "Not documented");
}

TEST(PanicTaxonomy, ToStringFormatsCategoryAndType) {
    EXPECT_EQ(toString(kKernExecAccessViolation), "KERN-EXEC 3");
    EXPECT_EQ(toString(kUserDesOverflow), "USER 11");
}

// -- Kernel & processes ----------------------------------------------------------

TEST_F(KernelFixture, ProcessLifecycle) {
    EXPECT_TRUE(kernel_.alive(pid_));
    EXPECT_EQ(kernel_.processName(pid_), "TestApp");
    EXPECT_EQ(kernel_.processKind(pid_), ProcessKind::UserApp);
    kernel_.killProcess(pid_, TerminationReason::Killed);
    EXPECT_FALSE(kernel_.alive(pid_));
    // Running in a dead process is refused.
    EXPECT_EQ(kernel_.runInProcess(pid_, [](ExecContext&) {}),
              Kernel::RunOutcome::NoSuchProcess);
}

TEST_F(KernelFixture, PanicTerminatesOnlyVictim) {
    const auto other = kernel_.createProcess("Other", ProcessKind::UserApp);
    const auto panic = runExpectPanic(
        [](ExecContext& ctx) { ctx.panic(kKernExecAccessViolation, "test"); });
    ASSERT_TRUE(panic.has_value());
    EXPECT_FALSE(kernel_.alive(pid_));
    EXPECT_TRUE(kernel_.alive(other));
}

TEST_F(KernelFixture, CoreAppPanicRequestsReboot) {
    const auto core = kernel_.createProcess("Phone.app", ProcessKind::CoreApp);
    std::optional<KernelAction> action;
    kernel_.setActionHandler(
        [&](KernelAction a, const PanicEvent&) { action = a; });
    kernel_.runInProcess(core, [](ExecContext& ctx) {
        ctx.panic(kPhoneAppInternal, "core app death");
    });
    ASSERT_TRUE(action.has_value());
    EXPECT_EQ(*action, KernelAction::RebootDevice);
}

TEST_F(KernelFixture, UiServerPanicRequestsFreeze) {
    const auto ui = kernel_.createProcess("WSERV", ProcessKind::UiServer);
    std::optional<KernelAction> action;
    kernel_.setActionHandler(
        [&](KernelAction a, const PanicEvent&) { action = a; });
    kernel_.runInProcess(
        ui, [](ExecContext& ctx) { ctx.panic(kKernExecAccessViolation, "wserv"); });
    ASSERT_TRUE(action.has_value());
    EXPECT_EQ(*action, KernelAction::FreezeDevice);
}

TEST_F(KernelFixture, UserAppPanicRequestsNothing) {
    bool called = false;
    kernel_.setActionHandler([&](KernelAction, const PanicEvent&) { called = true; });
    (void)runExpectPanic(
        [](ExecContext& ctx) { ctx.panic(kKernExecAccessViolation, "app"); });
    EXPECT_FALSE(called);
}

TEST_F(KernelFixture, PanicHooksSeeEventBeforeTermination) {
    std::optional<PanicEvent> seen;
    kernel_.addPanicHook([&](const PanicEvent& e) {
        seen = e;
        // The victim is still alive while hooks run (the logger reads its
        // context here).
        });
    (void)runExpectPanic(
        [](ExecContext& ctx) { ctx.panic(kUserDesOverflow, "overflow!"); });
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(seen->id, kUserDesOverflow);
    EXPECT_EQ(seen->processName, "TestApp");
    EXPECT_EQ(seen->diagnostic, "overflow!");
}

TEST_F(KernelFixture, TerminationHookReasons) {
    std::vector<TerminationReason> reasons;
    kernel_.addTerminationHook(
        [&](ProcessId, const std::string&, TerminationReason reason) {
            reasons.push_back(reason);
        });
    (void)runExpectPanic(
        [](ExecContext& ctx) { ctx.panic(kKernExecAccessViolation, "x"); });
    const auto second = kernel_.createProcess("Second", ProcessKind::UserApp);
    kernel_.killProcess(second, TerminationReason::Killed);
    kernel_.createProcess("Third", ProcessKind::UserApp);
    kernel_.shutdownAll();
    ASSERT_EQ(reasons.size(), 3u);
    EXPECT_EQ(reasons[0], TerminationReason::Panicked);
    EXPECT_EQ(reasons[1], TerminationReason::Killed);
    EXPECT_EQ(reasons[2], TerminationReason::DeviceShutdown);
}

TEST_F(KernelFixture, SuspendStopsExecution) {
    kernel_.setSuspended(true);
    bool ran = false;
    EXPECT_EQ(kernel_.runInProcess(pid_, [&](ExecContext&) { ran = true; }),
              Kernel::RunOutcome::NoSuchProcess);
    EXPECT_FALSE(ran);
    kernel_.setSuspended(false);
    EXPECT_EQ(kernel_.runInProcess(pid_, [&](ExecContext&) { ran = true; }),
              Kernel::RunOutcome::Completed);
    EXPECT_TRUE(ran);
}

TEST_F(KernelFixture, UntrappedLeaveBecomesNoTrapHandlerPanic) {
    const auto panic = runExpectPanic([](ExecContext& ctx) { ctx.leave(KErrNoMemory); });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseNoTrapHandler);
}

// -- Object index -----------------------------------------------------------------

TEST_F(KernelFixture, ObjectIndexLookupAndClose) {
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        const auto handle = kernel_.objectIndex().open(ctx, "DfcQueue");
        EXPECT_EQ(kernel_.objectIndex().lookupName(ctx, handle), "DfcQueue");
        kernel_.objectIndex().close(ctx, handle);
        EXPECT_FALSE(kernel_.objectIndex().contains(handle));
    });
}

TEST_F(KernelFixture, BadHandleLookupPanicsKernExec0) {
    const auto panic = runExpectPanic([&](ExecContext& ctx) {
        (void)kernel_.objectIndex().lookupName(ctx, 424'242);
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kKernExecBadHandle);
}

TEST_F(KernelFixture, BadHandleClosePanicsKernSvr0) {
    const auto panic = runExpectPanic(
        [&](ExecContext& ctx) { kernel_.objectIndex().close(ctx, 424'242); });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kKernSvrBadHandleClose);
}

TEST_F(KernelFixture, ProcessTeardownDropsItsObjects) {
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        (void)kernel_.objectIndex().open(ctx, "A");
        (void)kernel_.objectIndex().open(ctx, "B");
    });
    EXPECT_EQ(kernel_.objectIndex().size(), 2u);
    kernel_.killProcess(pid_, TerminationReason::Killed);
    EXPECT_EQ(kernel_.objectIndex().size(), 0u);
}

// -- Cleanup stack & trap/leave ----------------------------------------------------

TEST_F(KernelFixture, TrapCatchesLeaveAndUnwinds) {
    int destroyed = 0;
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        const int code = trap(ctx, [&](ExecContext& inner) {
            inner.cleanupStack().pushL(inner, [&]() { ++destroyed; });
            inner.cleanupStack().pushL(inner, [&]() { ++destroyed; });
            inner.leave(KErrNoMemory);
        });
        EXPECT_EQ(code, KErrNoMemory);
    });
    EXPECT_EQ(destroyed, 2);
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, TrapReturnsKErrNoneOnSuccess) {
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        int cleaned = 0;
        const int code = trap(ctx, [&](ExecContext& inner) {
            inner.cleanupStack().pushL(inner, [&]() { ++cleaned; });
            inner.cleanupStack().popAndDestroy(inner);
        });
        EXPECT_EQ(code, KErrNone);
        EXPECT_EQ(cleaned, 1);
    });
}

TEST_F(KernelFixture, NestedTrapsUnwindInnerOnly) {
    int outerCleaned = 0;
    int innerCleaned = 0;
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        const int code = trap(ctx, [&](ExecContext& mid) {
            mid.cleanupStack().pushL(mid, [&]() { ++outerCleaned; });
            const int innerCode = trap(mid, [&](ExecContext& inner) {
                inner.cleanupStack().pushL(inner, [&]() { ++innerCleaned; });
                inner.leave(KErrGeneral);
            });
            EXPECT_EQ(innerCode, KErrGeneral);
            EXPECT_EQ(innerCleaned, 1);
            EXPECT_EQ(outerCleaned, 0);
            mid.cleanupStack().popAndDestroy(mid);
        });
        EXPECT_EQ(code, KErrNone);
    });
    EXPECT_EQ(outerCleaned, 1);
}

TEST_F(KernelFixture, CleanupWithoutTrapPanics69) {
    const auto panic = runExpectPanic(
        [](ExecContext& ctx) { ctx.cleanupStack().pushL(ctx, []() {}); });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseNoTrapHandler);
}

TEST_F(KernelFixture, UnbalancedTrapPanics91) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        trap(ctx, [](ExecContext& inner) {
            inner.cleanupStack().pushL(inner, []() {});
        });
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseUndocumented91);
}

TEST_F(KernelFixture, PopUnderflowPanics92) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        trap(ctx, [](ExecContext& inner) {
            inner.cleanupStack().popAndDestroy(inner);
        });
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseUndocumented92);
}

TEST_F(KernelFixture, PopCannotCrossTrapBoundary) {
    // An inner trap may not pop items pushed by the outer frame.
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        trap(ctx, [](ExecContext& mid) {
            mid.cleanupStack().pushL(mid, []() {});
            trap(mid, [](ExecContext& inner) {
                inner.cleanupStack().popAndDestroy(inner);  // underflow: panics
            });
        });
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseUndocumented92);
}

// -- Heap & two-phase construction ---------------------------------------------------

TEST_F(KernelFixture, HeapTracksAllocations) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        HeapModel& heap = ctx.heap();
        const auto a = heap.allocL(ctx, 64);
        const auto b = heap.allocL(ctx, 128);
        EXPECT_EQ(heap.liveCount(), 2u);
        EXPECT_EQ(heap.bytesInUse(), 192u);
        heap.free(a);
        EXPECT_EQ(heap.liveCount(), 1u);
        EXPECT_TRUE(heap.live(b));
        heap.free(a);  // double free: a no-op, not fatal
        EXPECT_EQ(heap.liveCount(), 1u);
        EXPECT_EQ(heap.bytesInUse(), 128u);
    });
}

TEST_F(KernelFixture, HeapFailNextLeaves) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        ctx.heap().setCapacity(ctx.heap().bytesInUse());  // the next allocation fails
        const int code = trap(ctx, [](ExecContext& inner) {
            (void)inner.heap().allocL(inner, 32);
        });
        EXPECT_EQ(code, KErrNoMemory);
    });
}

TEST_F(KernelFixture, HeapCapacityExhaustionLeaves) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        ctx.heap().setCapacity(100);
        const int code = trap(ctx, [](ExecContext& inner) {
            (void)inner.heap().allocL(inner, 60);
            (void)inner.heap().allocL(inner, 60);  // exceeds capacity
        });
        EXPECT_EQ(code, KErrNoMemory);
    });
}

TEST_F(KernelFixture, TwoPhaseConstructionDoesNotLeakOnFailure) {
    // The NewLC idiom: allocate, push on cleanup stack, run the second
    // phase that may leave; on a leave the cleanup stack frees the object.
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        HeapModel& heap = ctx.heap();
        const int code = trap(ctx, [&](ExecContext& inner) {
            const auto cell = heap.allocL(inner, 256);   // first phase
            inner.cleanupStack().pushL(inner, [&heap, cell]() { heap.free(cell); });
            heap.setCapacity(heap.bytesInUse());         // second phase fails...
            (void)heap.allocL(inner, 1'024);             // ...and leaves
            inner.cleanupStack().pop(inner);             // (not reached)
        });
        EXPECT_EQ(code, KErrNoMemory);
        EXPECT_EQ(heap.liveCount(), 0u);  // no leak: cleanup stack freed phase one
    });
}

// -- CObject ---------------------------------------------------------------------------

TEST_F(KernelFixture, CObjectRefCountingHappyPath) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        CObjectModel object{"session"};
        object.open();
        object.open();
        EXPECT_EQ(object.accessCount(), 2);
        EXPECT_FALSE(object.close());
        EXPECT_TRUE(object.close());
        object.destroyCheck(ctx);  // refcount zero: fine
    });
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, CObjectDestroyWithRefsPanics33) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        CObjectModel object{"session"};
        object.open();
        object.destroyCheck(ctx);
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseObjectRefCount);
}

// -- Active objects ---------------------------------------------------------------------

TEST_F(KernelFixture, ActiveObjectDispatchRuns) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    int ran = 0;
    FunctionAo ao{scheduler, "worker", [&](ExecContext&, int status) {
                      EXPECT_EQ(status, KErrNone);
                      ++ran;
                  }};
    ao.setActive();
    scheduler.complete(ao, KErrNone);
    simulator_.runAll();
    EXPECT_EQ(ran, 1);
    EXPECT_FALSE(ao.isActive());
}

TEST_F(KernelFixture, StraySignalPanics46) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    FunctionAo ao{scheduler, "stray", [](ExecContext&, int) {}};
    scheduler.complete(ao, KErrNone);  // no setActive(): stray
    simulator_.runAll();
    ASSERT_FALSE(panics_.empty());
    EXPECT_EQ(panics_.back().id, kCBaseStraySignal);
    EXPECT_FALSE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, DoubleCompletionRunsOnceThenPanics46) {
    // Like User::RequestComplete writing iStatus, a second completion
    // before dispatch overwrites the first: RunL runs once and reads the
    // second code, and the second dispatch finds the AO inactive.
    auto& scheduler = kernel_.schedulerOf(pid_);
    std::vector<int> statuses;
    FunctionAo ao{scheduler, "twice",
                  [&](ExecContext&, int status) { statuses.push_back(status); }};
    ao.setActive();
    scheduler.complete(ao, KErrNone);
    scheduler.complete(ao, KErrCancel);
    simulator_.runAll();
    EXPECT_EQ(statuses, std::vector<int>{KErrCancel});
    ASSERT_EQ(panics_.size(), 1u);
    EXPECT_EQ(panics_.back().id, kCBaseStraySignal);
    EXPECT_FALSE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, RunLLeaveDefaultErrorPanics47) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    FunctionAo ao{scheduler, "leaver",
                  [](ExecContext& ctx, int) { ctx.leave(KErrGeneral); }};
    ao.setActive();
    scheduler.complete(ao, KErrNone);
    simulator_.runAll();
    ASSERT_FALSE(panics_.empty());
    EXPECT_EQ(panics_.back().id, kCBaseSchedulerError);
}

TEST_F(KernelFixture, ReplacedErrorHandlerSwallowsLeave) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    int handled = 0;
    scheduler.setErrorHandler([&](ExecContext&, int code) {
        EXPECT_EQ(code, KErrGeneral);
        ++handled;
        return true;
    });
    FunctionAo ao{scheduler, "leaver",
                  [](ExecContext& ctx, int) { ctx.leave(KErrGeneral); }};
    ao.setActive();
    scheduler.complete(ao, KErrNone);
    simulator_.runAll();
    EXPECT_EQ(handled, 1);
    EXPECT_TRUE(panics_.empty());
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, CancelPreventsDispatch) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    int ran = 0;
    bool cancelled = false;
    FunctionAo ao{scheduler, "cancellable", [&](ExecContext&, int) { ++ran; }};
    ao.setCancelFn([&]() { cancelled = true; });
    ao.setActive();
    scheduler.complete(ao, KErrNone,
                       ActiveScheduler::CompleteOpts{sim::Duration::seconds(5), {}});
    ao.cancel();
    simulator_.runAll();
    EXPECT_EQ(ran, 0);
    EXPECT_TRUE(cancelled);
    EXPECT_FALSE(ao.isActive());
}

TEST_F(KernelFixture, ViewSrvWatchdogPanicsMonopolizer) {
    kernel_.registerView(pid_);
    auto& scheduler = kernel_.schedulerOf(pid_);
    FunctionAo ao{scheduler, "monopolizer", [](ExecContext&, int) {}};
    ao.setActive();
    scheduler.complete(ao, KErrNone,
                       ActiveScheduler::CompleteOpts{
                           {}, kViewSrvTimeout * 2});
    simulator_.runAll();
    ASSERT_FALSE(panics_.empty());
    EXPECT_EQ(panics_.back().id, kViewSrvEventStarvation);
}

TEST_F(KernelFixture, NoViewNoWatchdog) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    FunctionAo ao{scheduler, "slow-but-viewless", [](ExecContext&, int) {}};
    ao.setActive();
    scheduler.complete(ao, KErrNone,
                       ActiveScheduler::CompleteOpts{
                           {}, kViewSrvTimeout * 2});
    simulator_.runAll();
    EXPECT_TRUE(panics_.empty());
}

// -- Timers -----------------------------------------------------------------------------

TEST_F(KernelFixture, TimerFiresAfterDelay) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    sim::TimePoint firedAt{};
    FunctionAo ao{scheduler, "tick",
                  [&](ExecContext&, int) { firedAt = simulator_.now(); }};
    RTimer timer{ao};
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        timer.after(ctx, sim::Duration::seconds(30));
    });
    EXPECT_TRUE(timer.outstanding());
    simulator_.runAll();
    EXPECT_EQ(firedAt, sim::TimePoint::origin() + sim::Duration::seconds(30));
    EXPECT_FALSE(timer.outstanding());
}

TEST_F(KernelFixture, DoubleTimerRequestPanics15) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    FunctionAo ao{scheduler, "tick", [](ExecContext&, int) {}};
    RTimer timer{ao};
    const auto panic = runExpectPanic([&](ExecContext& ctx) {
        timer.after(ctx, sim::Duration::seconds(10));
        timer.after(ctx, sim::Duration::seconds(10));
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kCBaseTimerOutstanding);
}

TEST_F(KernelFixture, TimerCancelSuppressesCompletion) {
    auto& scheduler = kernel_.schedulerOf(pid_);
    int fired = 0;
    FunctionAo ao{scheduler, "tick", [&](ExecContext&, int) { ++fired; }};
    RTimer timer{ao};
    kernel_.runInProcess(pid_, [&](ExecContext& ctx) {
        timer.after(ctx, sim::Duration::seconds(10));
    });
    timer.cancel();
    simulator_.runAll();
    EXPECT_EQ(fired, 0);
}

// -- Descriptors (detailed panics; sweeps live in the property tests) --------------------

TEST_F(KernelFixture, DescriptorBasicOps) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        Descriptor text{16};
        text.copy(ctx, "hello");
        text.append(ctx, " world");
        EXPECT_EQ(text.view(), "hello world");
        EXPECT_EQ(text.left(ctx, 5), "hello");
        EXPECT_EQ(text.right(ctx, 5), "world");
        EXPECT_EQ(text.mid(ctx, 6, 5), "world");
        text.insert(ctx, 5, ",");
        EXPECT_EQ(text.view(), "hello, world");
        text.erase(ctx, 5, 1);
        EXPECT_EQ(text.view(), "hello world");
        text.replace(ctx, 0, 5, "howdy");
        EXPECT_EQ(text.view(), "howdy world");
        text.setLength(ctx, 5);
        EXPECT_EQ(text.view(), "howdy");
        text.fill(ctx, 'x', 3);
        EXPECT_EQ(text.view(), "xxx");
    });
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, DescriptorOverflowPanics11) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        Descriptor text{4};
        text.copy(ctx, "too long for four");
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kUserDesOverflow);
}

TEST_F(KernelFixture, DescriptorBadPositionPanics10) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        Descriptor text{16};
        text.copy(ctx, "short");
        (void)text.mid(ctx, 10, 2);
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kUserDesIndexOutOfRange);
}

// -- IPC ----------------------------------------------------------------------------------

TEST_F(KernelFixture, ServerHandlesRequest) {
    const auto host = kernel_.createProcess("Server", ProcessKind::SystemServer);
    Server server{kernel_, host, "TestSrv"};
    server.setHandler([](ExecContext& ctx, Message& msg) {
        EXPECT_EQ(msg.op(), 7);
        EXPECT_EQ(msg.payload(), "ping");
        msg.complete(ctx, 42);
    });
    EXPECT_EQ(server.sendReceive(7, "ping"), 42);
    EXPECT_EQ(server.messagesServed(), 1u);
}

TEST_F(KernelFixture, DeadServerReturnsServerTerminated) {
    const auto host = kernel_.createProcess("Server", ProcessKind::SystemServer);
    Server server{kernel_, host, "TestSrv"};
    server.setHandler([](ExecContext& ctx, Message& msg) { msg.complete(ctx, 0); });
    kernel_.killProcess(host, TerminationReason::Killed);
    EXPECT_EQ(server.sendReceive(1), KErrServerTerminated);
}

TEST_F(KernelFixture, HandlerWithoutCompleteIsAnError) {
    const auto host = kernel_.createProcess("Server", ProcessKind::SystemServer);
    Server server{kernel_, host, "TestSrv"};
    server.setHandler([](ExecContext&, Message&) {});
    EXPECT_EQ(server.sendReceive(1), KErrGeneral);
}

TEST_F(KernelFixture, NullMessageCompletePanics70) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        Message orphan = Message::orphan(3);
        orphan.complete(ctx, KErrNone);
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kUserNullMessageComplete);
}

TEST_F(KernelFixture, DoubleCompletePanics70) {
    const auto host = kernel_.createProcess("Server", ProcessKind::SystemServer);
    Server server{kernel_, host, "TestSrv"};
    server.setHandler([](ExecContext& ctx, Message& msg) {
        msg.complete(ctx, KErrNone);
        msg.complete(ctx, KErrNone);  // panics USER 70
    });
    EXPECT_EQ(server.sendReceive(1), KErrServerTerminated);
    ASSERT_FALSE(panics_.empty());
    EXPECT_EQ(panics_.back().id, kUserNullMessageComplete);
}

TEST_F(KernelFixture, PanicInHandlerKillsServerNotClient) {
    const auto host = kernel_.createProcess("Server", ProcessKind::SystemServer);
    Server server{kernel_, host, "TestSrv"};
    server.setHandler([](ExecContext& ctx, Message&) {
        ctx.panic(kKernExecAccessViolation, "server bug");
    });
    EXPECT_EQ(server.sendReceive(1), KErrServerTerminated);
    EXPECT_FALSE(kernel_.alive(host));
    EXPECT_TRUE(kernel_.alive(pid_));
}

// -- UI framework ----------------------------------------------------------------------------

TEST_F(KernelFixture, ListboxHappyPath) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        ListboxModel listbox;
        listbox.setView();
        listbox.setItemCount(5);
        listbox.setCurrentItemIndex(ctx, 4);
        listbox.draw(ctx);
        EXPECT_EQ(listbox.currentItem(), 4u);
    });
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(KernelFixture, ListboxBadIndexPanics) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        ListboxModel listbox;
        listbox.setView();
        listbox.setItemCount(3);
        listbox.setCurrentItemIndex(ctx, 3);  // one past the end
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kListboxBadItemIndex);
}

TEST_F(KernelFixture, ListboxNoViewPanics) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        ListboxModel listbox;
        listbox.setItemCount(3);
        listbox.draw(ctx);
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kListboxNoView);
}

TEST_F(KernelFixture, EdwinCorruptStatePanics) {
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        EdwinModel edwin;
        edwin.inlineEdit(ctx);  // fine
        edwin.corruptInlineState();
        edwin.inlineEdit(ctx);  // panics
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kEikcoctlCorruptEdwin);
}

TEST_F(KernelFixture, AudioVolumeRangePanics) {
    EXPECT_FALSE(runExpectPanic([](ExecContext& ctx) {
                     AudioClientModel audio;
                     audio.setVolume(ctx, 9);  // max legal value
                 }).has_value());
    const auto panic = runExpectPanic([](ExecContext& ctx) {
        AudioClientModel audio;
        audio.setVolume(ctx, 10);
    });
    ASSERT_TRUE(panic.has_value());
    EXPECT_EQ(*panic, kMmfAudioBadVolume);
}

// -- System servers ----------------------------------------------------------------------------

TEST(SysServers, AppArchTracksRunning) {
    AppArchServer appArch;
    appArch.appStarted("Camera");
    appArch.appStarted("Clock");
    appArch.appStarted("Camera");  // idempotent
    EXPECT_EQ(appArch.running().size(), 2u);
    EXPECT_TRUE(appArch.isRunning("Camera"));
    appArch.appStopped("Camera");
    EXPECT_FALSE(appArch.isRunning("Camera"));
    appArch.reset();
    EXPECT_TRUE(appArch.running().empty());
}

TEST(SysServers, SystemAgentLowBatteryHookFiresOnce) {
    SystemAgentServer agent;
    int fired = 0;
    agent.addLowBatteryHook([&]() { ++fired; });
    agent.setBattery(50, false);
    EXPECT_EQ(fired, 0);
    agent.setBattery(3, false);
    EXPECT_EQ(fired, 1);
    agent.setBattery(2, false);  // still low: no re-fire
    EXPECT_EQ(fired, 1);
    agent.setBattery(80, true);
    agent.setBattery(1, false);
    EXPECT_EQ(fired, 2);
}

// -- Crash-dump capture --------------------------------------------------------
//
// EXPECT_PANIC for the dump pipeline: drive the real mechanism behind a
// catalog panic and assert the panic event carries a capture context a
// structured dump can be assembled from.

/// Drives the mechanism behind `id` against a fresh device and returns
/// the dump built from the first matching panic event, as the logger
/// would.  Fails the test if the mechanism never panics.
std::optional<crash::CrashDump> expectPanicCapturesDump(PanicId id) {
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "dump-capture";
    config.seed = 97;
    phone::PhoneDevice device{simulator, config};
    device.powerOn();

    std::vector<PanicEvent> events;
    device.kernel().addPanicHook(
        [&events](const PanicEvent& event) { events.push_back(event); });

    const auto victim =
        device.kernel().createProcess("VictimApp", ProcessKind::UserApp);
    faults::AsyncBag bag;
    faults::driveMechanism(device, victim, id, bag);
    // Async mechanisms (stray signal, scheduler error, timer, ViewSrv)
    // deliver on a later dispatch.
    simulator.runUntil(simulator.now() + sim::Duration::minutes(5));

    for (const auto& event : events) {
        if (!(event.id == id)) continue;
        return crash::makeDump(event, {"Messages"});
    }
    ADD_FAILURE() << "mechanism for " << toString(id) << " did not panic";
    return std::nullopt;
}

TEST(CrashDumpCapture, EveryCatalogMechanismCapturesADump) {
    for (const auto& row : paperPanicTable()) {
        SCOPED_TRACE(toString(row.id));
        const auto dump = expectPanicCapturesDump(row.id);
        if (!dump) continue;
        EXPECT_EQ(toString(dump->panic), toString(row.id));
        // Every driver panics outside an active trap frame: pushL panics
        // before pushing and trap() unwinds to its mark, so the captured
        // cleanup depth is zero for the whole catalog.
        EXPECT_EQ(dump->cleanupDepth, 0u);
        EXPECT_FALSE(dump->trapActive);
        // The pseudo-backtrace has a diagnostic leaf plus the mechanism's
        // propagation chain, and survives the wire format.
        ASSERT_GE(dump->frames.size(), 3u);
        EXPECT_EQ(dump->frames.front().rfind("raise: ", 0), 0u);
        EXPECT_NE(dump->faultAddress & 0x80000000u, 0u);
        const auto reparsed = logger::parseLogFile(crash::serialize(*dump));
        ASSERT_EQ(reparsed.size(), 1u);
        EXPECT_EQ(reparsed[0].dump, *dump);
    }
}

TEST(CrashDumpCapture, DumpAddressVariesPerOccurrenceButFamilyDoesNot) {
    const auto first = expectPanicCapturesDump(kKernExecAccessViolation);
    const auto second = expectPanicCapturesDump(kKernExecBadHandle);
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    // Different mechanisms produce different propagation chains.
    EXPECT_NE(first->frames, second->frames);
}

TEST(PanicTaxonomy, ParsePanicCategoryIsTheNonThrowingVariant) {
    for (std::size_t i = 0; i < kPanicCategoryCount; ++i) {
        const auto category = static_cast<PanicCategory>(i);
        const auto parsed = parsePanicCategory(toString(category));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, category);
    }
    EXPECT_FALSE(parsePanicCategory("BOGUS").has_value());
    EXPECT_FALSE(parsePanicCategory("").has_value());
}

}  // namespace
}  // namespace symfail::symbos
