// Parameterized/property tests over symbos invariants: descriptor bounds
// behaviour across operation/size sweeps, cleanup-stack balance across
// random programs, and the full fault-driver catalog.
#include <gtest/gtest.h>

#include <vector>

#include "faults/drivers.hpp"
#include "phone/device.hpp"
#include "simkernel/rng.hpp"
#include "symbos/cleanup.hpp"
#include "symbos/descriptor.hpp"
#include "symbos/err.hpp"
#include "symbos/kernel.hpp"
#include "symbos/panic.hpp"

namespace symfail::symbos {
namespace {

/// Appends every panic `kernel` delivers from now on to `panics`.
void recordPanics(Kernel& kernel, std::vector<PanicId>& panics) {
    kernel.addPanicHook(
        [&panics](const PanicEvent& event) { panics.push_back(event.id); });
}

// -- Descriptor sweep ----------------------------------------------------------

/// For a max length M and payload length L: copy panics iff L > M.
class DescriptorCopySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DescriptorCopySweep, CopyPanicsIffPayloadExceedsMax) {
    const auto [maxLen, payloadLen] = GetParam();
    sim::Simulator simulator;
    Kernel kernel{simulator};
    std::vector<PanicId> panics;
    recordPanics(kernel, panics);
    const auto pid = kernel.createProcess("sweep", ProcessKind::UserApp);
    const std::string payload(payloadLen, 'x');
    const auto outcome = kernel.runInProcess(pid, [&](ExecContext& ctx) {
        Descriptor text{maxLen};
        text.copy(ctx, payload);
        EXPECT_EQ(text.length(), payloadLen);
    });
    if (payloadLen > maxLen) {
        EXPECT_EQ(outcome, Kernel::RunOutcome::Panicked);
        ASSERT_FALSE(panics.empty());
        EXPECT_EQ(panics.back(), kUserDesOverflow);
    } else {
        EXPECT_EQ(outcome, Kernel::RunOutcome::Completed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DescriptorCopySweep,
    ::testing::Combine(::testing::Values(0u, 1u, 4u, 16u, 64u),
                       ::testing::Values(0u, 1u, 4u, 5u, 16u, 17u, 64u, 65u)));

/// For content length N and position P: mid(P, 0) panics iff P > N.
class DescriptorPositionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DescriptorPositionSweep, MidPanicsIffPositionOutOfBounds) {
    const auto [contentLen, pos] = GetParam();
    sim::Simulator simulator;
    Kernel kernel{simulator};
    std::vector<PanicId> panics;
    recordPanics(kernel, panics);
    const auto pid = kernel.createProcess("sweep", ProcessKind::UserApp);
    const std::string content(contentLen, 'y');
    const auto outcome = kernel.runInProcess(pid, [&](ExecContext& ctx) {
        Descriptor text{128};
        text.copy(ctx, content);
        (void)text.mid(ctx, pos, 0);
    });
    if (pos > contentLen) {
        EXPECT_EQ(outcome, Kernel::RunOutcome::Panicked);
        ASSERT_FALSE(panics.empty());
        EXPECT_EQ(panics.back(), kUserDesIndexOutOfRange);
    } else {
        EXPECT_EQ(outcome, Kernel::RunOutcome::Completed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Positions, DescriptorPositionSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 8u, 32u),
                       ::testing::Values(0u, 1u, 8u, 9u, 32u, 33u, 100u)));

/// Append sequences never exceed max without a panic (property over random
/// operation sequences).
class DescriptorRandomProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DescriptorRandomProgram, LengthInvariantHolds) {
    sim::Rng rng{GetParam()};
    sim::Simulator simulator;
    Kernel kernel{simulator};
    std::vector<PanicId> panics;
    recordPanics(kernel, panics);
    const auto pid = kernel.createProcess("prog", ProcessKind::UserApp);
    const std::size_t maxLen = 32;
    kernel.runInProcess(pid, [&](ExecContext& ctx) {
        Descriptor text{maxLen};
        for (int step = 0; step < 200; ++step) {
            const auto op = rng.uniformInt(0, 3);
            const auto n = static_cast<std::size_t>(rng.uniformInt(0, 8));
            const std::string chunk(n, 'z');
            // Guarded operations mirror defensive Symbian code: check
            // before acting, so no panic may occur.
            switch (op) {
                case 0:
                    if (text.length() + n <= maxLen) text.append(ctx, chunk);
                    break;
                case 1:
                    if (n <= text.length()) text.erase(ctx, 0, n);
                    break;
                case 2:
                    if (n <= maxLen) text.fill(ctx, 'f', n);
                    break;
                default:
                    if (n <= text.length()) {
                        EXPECT_EQ(text.left(ctx, n).size(), n);
                    }
                    break;
            }
            ASSERT_LE(text.length(), maxLen);
        }
    });
    EXPECT_TRUE(kernel.alive(pid));
    EXPECT_TRUE(panics.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptorRandomProgram,
                         ::testing::Range<std::uint64_t>(1, 21));

// -- Cleanup-stack property -------------------------------------------------------

/// Random push/pop programs under a trap: anything pushed and not popped
/// is destroyed exactly once when the program leaves.
class CleanupStackProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CleanupStackProgram, EveryItemDestroyedExactlyOnceOnLeave) {
    sim::Rng rng{GetParam()};
    sim::Simulator simulator;
    Kernel kernel{simulator};
    const auto pid = kernel.createProcess("prog", ProcessKind::UserApp);
    kernel.runInProcess(pid, [&](ExecContext& ctx) {
        std::vector<int> destroyCounts;
        std::size_t pushed = 0;
        std::size_t popped = 0;
        const int code = trap(ctx, [&](ExecContext& inner) {
            for (int step = 0; step < 100; ++step) {
                if (rng.bernoulli(0.6) || pushed == popped) {
                    const auto idx = destroyCounts.size();
                    destroyCounts.push_back(0);
                    inner.cleanupStack().pushL(
                        inner, [&destroyCounts, idx]() { ++destroyCounts[idx]; });
                    ++pushed;
                } else {
                    inner.cleanupStack().popAndDestroy(inner);
                    ++popped;
                }
            }
            inner.leave(KErrCancel);
        });
        EXPECT_EQ(code, KErrCancel);
        for (const int count : destroyCounts) EXPECT_EQ(count, 1);
    });
    EXPECT_TRUE(kernel.alive(pid));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CleanupStackProgram,
                         ::testing::Range<std::uint64_t>(1, 16));

// -- Fault-driver catalog sweep ------------------------------------------------------

/// Every Table 2 panic driver raises exactly its panic through the real
/// mechanism.
class DriverSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DriverSweep, DriverRaisesItsPanic) {
    const auto row = paperPanicTable()[GetParam()];
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "driver-sweep";
    config.seed = 1;
    phone::PhoneDevice device{simulator, config};
    device.powerOn();
    simulator.runUntil(sim::TimePoint::origin() + sim::Duration::minutes(1));

    auto& kernel = device.kernel();
    const auto victim = kernel.createProcess("Victim", ProcessKind::UserApp);
    faults::AsyncBag bag;
    std::vector<PanicId> panics;
    recordPanics(kernel, panics);
    faults::driveMechanism(device, victim, row.id, bag);
    // Async drivers (stray signal, scheduler error, timer, ViewSrv)
    // deliver on the next dispatch.
    simulator.runUntil(simulator.now() + sim::Duration::hours(2));

    ASSERT_EQ(panics.size(), 1u)
        << "driver for " << toString(row.id) << " did not panic";
    EXPECT_EQ(panics.back(), row.id);
    EXPECT_FALSE(kernel.alive(victim));
}

INSTANTIATE_TEST_SUITE_P(AllPanics, DriverSweep,
                         ::testing::Range<std::size_t>(0, 20));

}  // namespace
}  // namespace symfail::symbos
