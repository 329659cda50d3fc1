// Cross-cutting property tests: invariants of the simulator, the flash
// store, the injector, and the analysis pipeline under parameter sweeps.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/discriminator.hpp"
#include "analysis/mtbf.hpp"
#include "analysis/panic_stats.hpp"
#include "faults/injector.hpp"
#include "fleet/fleet.hpp"
#include "logger/logger.hpp"
#include "phone/flash.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"

namespace symfail {
namespace {

// -- Simulator: events always fire in timestamp order under random schedules --------

class SimulatorOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOrdering, RandomScheduleFiresInOrder) {
    sim::Rng rng{GetParam()};
    sim::Simulator simulator;
    std::vector<std::int64_t> fired;
    // Random mix of absolute/relative scheduling, including re-entrant
    // scheduling from inside events.
    for (int i = 0; i < 200; ++i) {
        const auto at = sim::TimePoint::fromMicros(rng.uniformInt(0, 1'000'000));
        simulator.scheduleAt(at, [&fired, &simulator, &rng, at]() {
            fired.push_back(at.micros());
            if (rng.bernoulli(0.3)) {
                const auto delay = sim::Duration::micros(rng.uniformInt(0, 10'000));
                simulator.scheduleAfter(delay, "test", [&fired, &simulator]() {
                    fired.push_back(simulator.now().micros());
                });
            }
        });
    }
    simulator.runAll();
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_GE(fired.size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrdering,
                         ::testing::Range<std::uint64_t>(1, 11));

// -- Flash: rotation never loses the newest data ---------------------------------------

class FlashRotation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlashRotation, NewestLinesSurvive) {
    sim::Rng rng{GetParam()};
    phone::FlashStore flash;
    constexpr std::size_t kLimit = phone::FlashStore::kRotateLimitBytes;
    std::string lastWritten;
    // Lines of 0-40 KiB: about 20 MiB in all, so the file rotates
    // several times.
    for (int i = 0; i < 1'000; ++i) {
        lastWritten = "entry-" + std::to_string(i) + "-" +
                      std::string(static_cast<std::size_t>(rng.uniformInt(0, 40)) * 1024,
                                  'x');
        flash.appendLine("log", lastWritten);
        // Size is bounded and the newest line is always intact.
        EXPECT_LE(flash.content("log").size(), kLimit + lastWritten.size() + 1);
        EXPECT_EQ(flash.lastLine("log"), lastWritten);
    }
    // The file did rotate: the first line is gone.
    EXPECT_EQ(flash.content("log").find("entry-0-"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlashRotation, ::testing::Range<std::uint64_t>(1, 9));

// -- Injector determinism ---------------------------------------------------------------

class InjectorDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InjectorDeterminism, SameSeedSameStats) {
    auto run = [&](std::uint64_t seed) {
        sim::Simulator simulator;
        phone::PhoneDevice::Config config;
        config.name = "det";
        config.seed = seed;
        phone::PhoneDevice device{simulator, config};
        logger::FailureLogger loggerApp{device};
        faults::StudyPlan plan;
        plan.expectedCalls = 60;
        plan.expectedMessages = 60;
        plan.expectedOnHours = 200;
        plan.targetPanics = 40;
        plan.targetFreezes = 10;
        plan.targetSelfShutdowns = 10;
        faults::FaultInjector injector{device, faults::deriveRates(plan), seed};
        device.powerOn();
        simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(10));
        return std::tuple{injector.stats().secondaryPanics, injector.stats().primaryPanics,
                          injector.stats().hangs, loggerApp.logFileContent()};
    };
    const auto a = run(GetParam());
    const auto b = run(GetParam());
    EXPECT_EQ(a, b);
    // Different seed: (overwhelmingly likely) different trace.
    const auto c = run(GetParam() + 1'000);
    EXPECT_NE(std::get<3>(a), std::get<3>(c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InjectorDeterminism,
                         ::testing::Values(11u, 22u, 33u, 44u));

// -- Pipeline properties over a shared campaign -------------------------------------------

class PipelineProperties : public ::testing::Test {
protected:
    static const analysis::LogDataset& dataset() {
        static const analysis::LogDataset kDataset = []() {
            fleet::FleetConfig config;
            config.phoneCount = 4;
            config.campaign = sim::Duration::days(40);
            config.enrollmentWindow = sim::Duration::days(8);
            config.seed = 404;
            config.freezesPerHour *= 8.0;
            config.selfShutdownsPerHour *= 8.0;
            config.panicsPerHour *= 8.0;
            const auto result = fleet::runCampaign(config);
            return analysis::LogDataset::build(result.logs);
        }();
        return kDataset;
    }
};

TEST_F(PipelineProperties, DiscriminatorIsMonotoneInThreshold) {
    std::size_t previous = 0;
    for (const double threshold : {10.0, 60.0, 120.0, 360.0, 900.0, 3'600.0}) {
        const auto result = analysis::ShutdownDiscriminator{threshold}.classify(dataset());
        EXPECT_GE(result.selfShutdowns.size(), previous);
        previous = result.selfShutdowns.size();
        // Partition property: every reboot event lands in exactly one bin.
        EXPECT_EQ(result.selfShutdowns.size() + result.userShutdowns.size(),
                  result.totalRebootEvents());
        // Every self-shutdown respects the threshold.
        for (const auto& s : result.selfShutdowns) {
            EXPECT_LT(s.offDuration().asSecondsF(), threshold);
        }
    }
}

TEST_F(PipelineProperties, BurstCountDecreasesWithGap) {
    std::uint64_t previousBursts = UINT64_MAX;
    for (const double gap : {10.0, 60.0, 300.0, 1'800.0, 7'200.0}) {
        const auto lengths = analysis::burstLengths(dataset(), gap);
        // Total panics is invariant; the number of groups only shrinks.
        std::uint64_t panicsCovered = 0;
        for (const auto& [len, count] : lengths.entries()) {
            panicsCovered += static_cast<std::uint64_t>(len) * count;
        }
        EXPECT_EQ(panicsCovered, dataset().panics().size());
        EXPECT_LE(lengths.total(), previousBursts);
        previousBursts = lengths.total();
    }
}

TEST_F(PipelineProperties, PanicTablePercentagesSumTo100) {
    const auto rows = analysis::panicTable(dataset());
    double total = 0.0;
    std::size_t count = 0;
    for (const auto& row : rows) {
        total += row.percent;
        count += row.count;
    }
    EXPECT_NEAR(total, 100.0, 0.01);
    EXPECT_EQ(count, dataset().panics().size());
}

TEST_F(PipelineProperties, MtbfScalesInverselyWithEventCount) {
    const auto classification =
        analysis::ShutdownDiscriminator{}.classify(dataset());
    const auto report = analysis::estimateMtbf(dataset(), classification);
    ASSERT_GT(report.freezeCount, 0u);
    // Definitionally: hours / count.
    EXPECT_NEAR(report.mtbfFreezeHours * static_cast<double>(report.freezeCount),
                report.observedPhoneHours, 0.1);
}

TEST_F(PipelineProperties, PerPhoneCountsSumToCampaignCounts) {
    const auto classification =
        analysis::ShutdownDiscriminator{}.classify(dataset());
    const auto rows = analysis::perPhoneMtbf(dataset(), classification);
    std::size_t freezes = 0;
    std::size_t selfShutdowns = 0;
    for (const auto& row : rows) {
        freezes += row.freezes;
        selfShutdowns += row.selfShutdowns;
    }
    EXPECT_EQ(freezes, dataset().freezes().size());
    EXPECT_EQ(selfShutdowns, classification.selfShutdowns.size());
}

// -- Logger heartbeat-period property ---------------------------------------------------

class HeartbeatPeriodSweep : public ::testing::TestWithParam<int> {};

TEST_P(HeartbeatPeriodSweep, FreezeTimestampErrorBoundedByPeriod) {
    const int period = GetParam();
    sim::Simulator simulator;
    phone::PhoneDevice::Config config;
    config.name = "hb";
    config.seed = 77;
    config.profile.nightOffProb = 0.0;
    config.profile.daytimeOffPerDay = 0.0;
    config.profile.quickCyclesPerDay = 0.0;
    phone::PhoneDevice device{simulator, config};
    logger::LoggerConfig loggerConfig;
    loggerConfig.heartbeatPeriod = sim::Duration::seconds(period);
    logger::FailureLogger loggerApp{device, loggerConfig};
    device.powerOn();

    const auto freezeAt =
        sim::TimePoint::origin() + sim::Duration::hours(10) + sim::Duration::seconds(17);
    simulator.runUntil(freezeAt);
    device.freeze("prop");
    simulator.runUntil(freezeAt + sim::Duration::days(1));

    const auto dataset = analysis::LogDataset::build(
        {analysis::PhoneLog{device.name(), loggerApp.logFileContent()}});
    ASSERT_EQ(dataset.freezes().size(), 1u);
    const double error = (freezeAt - dataset.freezes()[0].lastAliveAt).asSecondsF();
    EXPECT_GE(error, 0.0);
    EXPECT_LE(error, static_cast<double>(period) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Periods, HeartbeatPeriodSweep,
                         ::testing::Values(5, 20, 60, 180, 600));

}  // namespace
}  // namespace symfail
