// Tests for the two-phase construction (NewLC) helper.
#include <gtest/gtest.h>

#include <vector>

#include "symbos/err.hpp"
#include "symbos/heap.hpp"
#include "symbos/twophase.hpp"

namespace symfail::symbos {
namespace {

/// A CBase-style type: nothrow phase one, leaving phase two.
class Session {
public:
    explicit Session(int id) : id_{id} { ++liveCount; }
    ~Session() {
        --liveCount;
        if (constructed_) ++destroyedConstructed;
        if (cleanupHeap_ != nullptr && buffer_ != 0) cleanupHeap_->free(buffer_);
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    void constructL(ExecContext& ctx) {
        buffer_ = ctx.heap().allocL(ctx, 128);  // may leave with KErrNoMemory
        cleanupHeap_ = &ctx.heap();
        constructed_ = true;
    }

    [[nodiscard]] int id() const { return id_; }
    [[nodiscard]] bool constructed() const { return constructed_; }

    static inline int liveCount = 0;
    static inline int destroyedConstructed = 0;

private:
    int id_;
    bool constructed_{false};
    HeapCell buffer_{0};
    HeapModel* cleanupHeap_{nullptr};
};

class TwoPhaseFixture : public ::testing::Test {
protected:
    TwoPhaseFixture() : kernel_{simulator_} {
        pid_ = kernel_.createProcess("TwoPhase", ProcessKind::UserApp);
        kernel_.addPanicHook(
            [this](const PanicEvent& event) { panics_.push_back(event); });
        Session::liveCount = 0;
        Session::destroyedConstructed = 0;
    }
    sim::Simulator simulator_;
    Kernel kernel_;
    ProcessId pid_{0};
    std::vector<PanicEvent> panics_;  ///< Every panic the kernel delivered.
};

TEST_F(TwoPhaseFixture, SuccessfulConstruction) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        const int code = trap(ctx, [](ExecContext& inner) {
            auto session = newL<Session>(inner, 7);
            ASSERT_NE(session, nullptr);
            EXPECT_EQ(session->id(), 7);
            EXPECT_TRUE(session->constructed());
            EXPECT_EQ(Session::liveCount, 1);
        });
        EXPECT_EQ(code, KErrNone);
    });
    EXPECT_EQ(Session::liveCount, 0);
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(TwoPhaseFixture, SecondPhaseLeaveDoesNotLeak) {
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        // constructL's allocation leaves.
        ctx.heap().setCapacity(ctx.heap().bytesInUse());
        const int code = trap(ctx, [](ExecContext& inner) {
            auto session = newL<Session>(inner, 8);
            FAIL() << "construction should have left";
        });
        EXPECT_EQ(code, KErrNoMemory);
        // The half-built object was destroyed by the cleanup stack...
        EXPECT_EQ(Session::liveCount, 0);
        // ...and it was the *unconstructed* one.
        EXPECT_EQ(Session::destroyedConstructed, 0);
        // No heap cell leaked either.
        EXPECT_EQ(ctx.heap().liveCount(), 0u);
    });
    EXPECT_TRUE(kernel_.alive(pid_));
}

TEST_F(TwoPhaseFixture, OutsideTrapPanics69) {
    const auto outcome = kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        auto session = newL<Session>(ctx, 9);  // pushL with no trap: panic
    });
    EXPECT_EQ(outcome, Kernel::RunOutcome::Panicked);
    ASSERT_FALSE(panics_.empty());
    EXPECT_EQ(panics_.back().id, kCBaseNoTrapHandler);
}

TEST_F(TwoPhaseFixture, NestedConstructionUnwindsAll) {
    /// A type whose phase two builds another object.
    class Composite {
    public:
        Composite() = default;
        void constructL(ExecContext& ctx) {
            inner_ = newL<Session>(ctx, 1);
            ctx.heap().setCapacity(ctx.heap().bytesInUse());
            (void)ctx.heap().allocL(ctx, 64);  // leaves after the inner succeeded
        }

    private:
        std::unique_ptr<Session> inner_;
    };
    kernel_.runInProcess(pid_, [](ExecContext& ctx) {
        const int code = trap(ctx, [](ExecContext& inner) {
            auto composite = newL<Composite>(inner);
        });
        EXPECT_EQ(code, KErrNoMemory);
        EXPECT_EQ(Session::liveCount, 0);
        EXPECT_EQ(ctx.heap().liveCount(), 0u);
    });
}

}  // namespace
}  // namespace symfail::symbos
