// Tests for the experiment engine: seed derivation, replication
// statistics, the work-stealing pool, grid parsing, and scheduling
// determinism (byte-identical output across --jobs values).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "experiment/export.hpp"
#include "experiment/grid.hpp"
#include "experiment/runner.hpp"
#include "experiment/seed.hpp"
#include "experiment/stats.hpp"
#include "obs/accountant.hpp"
#include "obs/metrics.hpp"
#include "simkernel/pool.hpp"
#include "simkernel/rng.hpp"

namespace symfail {
namespace {

// -- Seed derivation ------------------------------------------------------------

TEST(ExperimentSeed, DistinctAcrossCellsAndTrials) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t cell = 0; cell < 64; ++cell) {
        for (std::uint64_t trial = 0; trial < 64; ++trial) {
            seen.insert(experiment::deriveTrialSeed(2007, cell, trial));
        }
    }
    EXPECT_EQ(seen.size(), 64u * 64u) << "trial seed collision";
}

TEST(ExperimentSeed, PureAndMasterSeedSensitive) {
    EXPECT_EQ(experiment::deriveTrialSeed(7, 3, 5),
              experiment::deriveTrialSeed(7, 3, 5));
    EXPECT_NE(experiment::deriveTrialSeed(7, 3, 5),
              experiment::deriveTrialSeed(8, 3, 5));
    // Swapping coordinates must not alias: (cell, trial) is absorbed in
    // order, not xor-folded.
    EXPECT_NE(experiment::deriveTrialSeed(7, 3, 5),
              experiment::deriveTrialSeed(7, 5, 3));
}

TEST(ExperimentSeed, NamedSeedsDifferBySalt) {
    EXPECT_NE(experiment::deriveNamedSeed(42, "mtbf_freeze_hours"),
              experiment::deriveNamedSeed(42, "panic_count"));
    // The bootstrap lane never collides with any trial lane.
    std::set<std::uint64_t> trialSeeds;
    for (std::uint64_t t = 0; t < 1024; ++t) {
        trialSeeds.insert(experiment::deriveTrialSeed(42, 0, t));
    }
    EXPECT_EQ(trialSeeds.count(experiment::deriveNamedSeed(
                  experiment::deriveTrialSeed(42, 0, ~0ULL), "panic_count")),
              0u);
}

// -- Statistics -----------------------------------------------------------------

TEST(ExperimentStats, StudentTCriticalValues) {
    EXPECT_NEAR(experiment::studentT95(1), 12.706, 1e-3);
    EXPECT_NEAR(experiment::studentT95(4), 2.776, 1e-3);
    EXPECT_NEAR(experiment::studentT95(10), 2.228, 1e-3);
    EXPECT_NEAR(experiment::studentT95(30), 2.042, 1e-3);
    EXPECT_NEAR(experiment::studentT95(100), 1.984, 2e-3);
    EXPECT_NEAR(experiment::studentT95(1'000'000), 1.960, 1e-3);
}

TEST(ExperimentStats, KnownSampleSummary) {
    const double samples[] = {1.0, 2.0, 3.0, 4.0, 5.0};
    const auto stats = experiment::summarize(samples, 99, 400);
    EXPECT_EQ(stats.n, 5u);
    EXPECT_DOUBLE_EQ(stats.mean, 3.0);
    EXPECT_NEAR(stats.stddev, std::sqrt(2.5), 1e-12);
    EXPECT_DOUBLE_EQ(stats.min, 1.0);
    EXPECT_DOUBLE_EQ(stats.max, 5.0);
    const double half = 2.776 * std::sqrt(2.5) / std::sqrt(5.0);
    EXPECT_NEAR(stats.ciLow, 3.0 - half, 1e-3);
    EXPECT_NEAR(stats.ciHigh, 3.0 + half, 1e-3);
    // The bootstrap interval lives inside the sample range, brackets the
    // mean, and is narrower than the full range with 400 resamples.
    EXPECT_GE(stats.bootstrapLow, 1.0);
    EXPECT_LE(stats.bootstrapHigh, 5.0);
    EXPECT_LE(stats.bootstrapLow, 3.0);
    EXPECT_GE(stats.bootstrapHigh, 3.0);
}

TEST(ExperimentStats, BootstrapIsDeterministic) {
    const double samples[] = {4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
    const auto a = experiment::summarize(samples, 1234, 500);
    const auto b = experiment::summarize(samples, 1234, 500);
    EXPECT_DOUBLE_EQ(a.bootstrapLow, b.bootstrapLow);
    EXPECT_DOUBLE_EQ(a.bootstrapHigh, b.bootstrapHigh);
    const auto c = experiment::summarize(samples, 1235, 500);
    EXPECT_TRUE(c.bootstrapLow != a.bootstrapLow ||
                c.bootstrapHigh != a.bootstrapHigh)
        << "different bootstrap seeds produced identical intervals";
}

TEST(ExperimentStats, DegenerateSamples) {
    const auto empty = experiment::summarize({}, 1, 100);
    EXPECT_EQ(empty.n, 0u);
    const double one[] = {7.5};
    const auto single = experiment::summarize(one, 1, 100);
    EXPECT_DOUBLE_EQ(single.mean, 7.5);
    EXPECT_DOUBLE_EQ(single.ciLow, 7.5);
    EXPECT_DOUBLE_EQ(single.ciHigh, 7.5);
    EXPECT_DOUBLE_EQ(single.bootstrapLow, 7.5);
}

// summarize resamples with Rng::uniformInt(0, n - 1) and takes the
// nearest-rank percentiles of the resample means: its interval must equal
// that of a plain loop over uniformInt, for every sample count.
TEST(ExperimentStats, BootstrapDrawsMatchUniformInt) {
    constexpr int kResamples = 200;
    for (std::size_t n = 2; n <= 64; ++n) {
        std::vector<double> samples;
        for (std::size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>(i * i % 37));
        for (const std::uint64_t seed : {1ULL, 2007ULL, 0x9E3779B97F4A7C15ULL}) {
            sim::Rng rng{seed};
            std::vector<double> means;
            for (int r = 0; r < kResamples; ++r) {
                double total = 0.0;
                for (std::size_t i = 0; i < n; ++i) {
                    total += samples[static_cast<std::size_t>(
                        rng.uniformInt(0, static_cast<std::int64_t>(n) - 1))];
                }
                means.push_back(total / static_cast<double>(n));
            }
            std::sort(means.begin(), means.end());
            const auto rank = [&](double q) {
                return means[static_cast<std::size_t>(
                    q * static_cast<double>(means.size() - 1) + 0.5)];
            };
            const auto stats = experiment::summarize(samples, seed, kResamples);
            EXPECT_EQ(stats.bootstrapLow, rank(0.025)) << "n " << n << ", seed " << seed;
            EXPECT_EQ(stats.bootstrapHigh, rank(0.975)) << "n " << n << ", seed " << seed;
        }
    }
}

// -- Work-stealing pool ---------------------------------------------------------

/// The thread share outside any pool run.
int machineThreads() {
    return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
}

TEST(ExperimentPool, RunsEveryTaskExactlyOnce) {
    constexpr std::size_t kTasks = 257;
    std::vector<std::atomic<int>> counts(kTasks);
    sim::runWorkStealing(kTasks, 8, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(counts[i].load(), 1) << "task " << i;
    }
}

TEST(ExperimentPool, SingleWorkerRunsInline) {
    const auto caller = std::this_thread::get_id();
    std::size_t ran = 0;
    sim::runWorkStealing(10, 1, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++ran;
    });
    EXPECT_EQ(ran, 10u);
}

TEST(ExperimentPool, MoreWorkersThanTasks) {
    std::vector<std::atomic<int>> counts(3);
    sim::runWorkStealing(3, 16, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(counts[i].load(), 1);
}

// A fleet keeps one pool for a whole campaign and runs every phone once
// per window on it.
TEST(ExperimentPool, PersistentPoolRunsEveryTaskInEveryRun) {
    sim::WorkerPool pool{4};
    std::vector<int> runs(9, 0);
    for (int window = 0; window < 5; ++window) {
        pool.run(runs.size(), [&](std::size_t i) {
            EXPECT_EQ(sim::taskThreads(), 1);
            ++runs[i];
        });
    }
    for (const int count : runs) EXPECT_EQ(count, 5);
    EXPECT_EQ(sim::taskThreads(), machineThreads());
}

// A caller outside any run may keep every hardware thread busy; a task
// may keep the share its run grants, 1 unless the caller passes more.
TEST(ExperimentPool, TaskThreadsIsTheShareItsRunGrants) {
    EXPECT_EQ(sim::taskThreads(), machineThreads());
    std::vector<int> shares(6, 0);
    sim::runWorkStealing(shares.size(), 3,
                         [&](std::size_t i) { shares[i] = sim::taskThreads(); });
    for (const int share : shares) EXPECT_EQ(share, 1);
    sim::runWorkStealing(
        shares.size(), 3,
        [&](std::size_t i) {
            // A run inside a task grants its own share, and the task gets
            // its share back when that run is over.
            sim::runWorkStealing(2, 2, [](std::size_t) { EXPECT_EQ(sim::taskThreads(), 1); });
            shares[i] = sim::taskThreads();
        },
        2);
    for (const int share : shares) EXPECT_EQ(share, 2);
    sim::WorkerPool pool{2};
    pool.run(shares.size(), [&](std::size_t i) { shares[i] = sim::taskThreads(); }, 3);
    for (const int share : shares) EXPECT_EQ(share, 3);
    sim::runWorkStealing(1, 1, [](std::size_t) { EXPECT_EQ(sim::taskThreads(), 5); }, 5);
    EXPECT_EQ(sim::taskThreads(), machineThreads());
}

TEST(ExperimentPool, TaskExceptionReachesTheCallerAfterTheRun) {
    sim::WorkerPool pool{4};
    std::vector<std::atomic<int>> ran(16);
    EXPECT_THROW(pool.run(ran.size(),
                          [&](std::size_t i) {
                              ran[i].store(1);
                              if (i == 5) throw std::runtime_error("task 5");
                          }),
                 std::runtime_error);
    for (const auto& flag : ran) EXPECT_EQ(flag.load(), 1);
    EXPECT_EQ(sim::taskThreads(), machineThreads());
    std::atomic<int> after{0};
    pool.run(3, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 3);
}

// Updating pre-registered instruments from pool workers is the documented
// thread-safe path (registration stays single-threaded).  Run under TSan
// in CI: a data race here fails the tsan job even if the values happen to
// come out right.
TEST(ExperimentPool, SharedMetricUpdatesAreThreadSafe) {
    obs::MetricsRegistry registry;
    auto& tasks = registry.counter("pool", "tasks", "tasks run by workers");
    auto& total = registry.gauge("pool", "task_sum", "sum of task indices");
    constexpr std::size_t kTasks = 512;
    sim::runWorkStealing(kTasks, 8, [&](std::size_t i) {
        tasks.inc();
        total.add(static_cast<double>(i));
    });
    EXPECT_EQ(tasks.value(), kTasks);
    // Integer-valued doubles below 2^53 sum exactly in any order.
    EXPECT_DOUBLE_EQ(total.value(),
                     static_cast<double>(kTasks * (kTasks - 1) / 2));
}

// The accountant is mutex-guarded: workers accounting their per-trial
// subsystems into one shared ledger must never race or lose samples.
TEST(ExperimentPool, SharedAccountantUpdatesAreThreadSafe) {
    obs::ResourceAccountant accountant;
    constexpr std::size_t kTasks = 256;
    sim::runWorkStealing(kTasks, 8, [&](std::size_t i) {
        accountant.record("worker-" + std::to_string(i % 4), i + 1);
    });
    EXPECT_EQ(accountant.samplesTaken(), kTasks);
    const auto accounts = accountant.accounts();
    ASSERT_EQ(accounts.size(), 4u);
    for (const auto& account : accounts) {
        EXPECT_EQ(account.samples, kTasks / 4);
        EXPECT_GE(account.peakBytes, account.currentBytes);
    }
    EXPECT_GE(accountant.peakTotalBytes(), accountant.totalBytes());
}

// -- Grid -----------------------------------------------------------------------

TEST(ExperimentGrid, CartesianProductInCanonicalOrder) {
    const experiment::Cell defaults;
    const auto grid = experiment::Grid::parse(
        R"({"phones": [2, 4], "days": 30, "loss_pct": [0, 10, 20]})", defaults);
    ASSERT_EQ(grid.size(), 6u);
    // phones varies slowest, loss fastest.
    EXPECT_EQ(grid.cells()[0].phones, 2);
    EXPECT_DOUBLE_EQ(grid.cells()[0].lossPct, 0.0);
    EXPECT_DOUBLE_EQ(grid.cells()[2].lossPct, 20.0);
    EXPECT_EQ(grid.cells()[3].phones, 4);
    EXPECT_EQ(grid.cells()[0].days, 30);
    // Unswept axes keep the defaults.
    EXPECT_DOUBLE_EQ(grid.cells()[0].dupPct, defaults.dupPct);
}

TEST(ExperimentGrid, EmptyObjectIsTheDefaultCell) {
    experiment::Cell defaults;
    defaults.phones = 7;
    const auto grid = experiment::Grid::parse("{}", defaults);
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid.cells()[0].phones, 7);
}

TEST(ExperimentGrid, RejectsMalformedInput) {
    const experiment::Cell defaults;
    EXPECT_THROW((void)experiment::Grid::parse("", defaults), std::runtime_error);
    EXPECT_THROW((void)experiment::Grid::parse("[]", defaults), std::runtime_error);
    EXPECT_THROW((void)experiment::Grid::parse(R"({"phones": "five"})", defaults),
                 std::runtime_error);
    EXPECT_THROW((void)experiment::Grid::parse(R"({"phones": [2],)", defaults),
                 std::runtime_error);
    EXPECT_THROW((void)experiment::Grid::parse(R"({"phones": [2]} trailing)", defaults),
                 std::runtime_error);
    // Typos must fail loudly, not silently sweep the default.
    EXPECT_THROW((void)experiment::Grid::parse(R"({"phoness": [2]})", defaults),
                 std::runtime_error);
    // Out-of-range and non-integer values.
    EXPECT_THROW((void)experiment::Grid::parse(R"({"phones": 0})", defaults),
                 std::runtime_error);
    EXPECT_THROW((void)experiment::Grid::parse(R"({"phones": 2.5})", defaults),
                 std::runtime_error);
    EXPECT_THROW((void)experiment::Grid::parse(R"({"loss_pct": 150})", defaults),
                 std::runtime_error);
    // An empty list would silently sweep the default.
    EXPECT_THROW((void)experiment::Grid::parse(R"({"loss_pct": []})", defaults),
                 std::runtime_error);
    EXPECT_THROW(
        (void)experiment::Grid::parse(R"({"phones": [2], "days": []})", defaults),
        std::runtime_error);
    // A repeated key would silently drop all but its last list.
    try {
        (void)experiment::Grid::parse(R"({"days": [2, 3], "days": 2})", defaults);
        ADD_FAILURE() << "a repeated grid key was accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "grid axis 'days' appears more than once");
    }
}

TEST(ExperimentGrid, CellMaterializesStudyConfig) {
    experiment::Cell cell;
    cell.phones = 3;
    cell.days = 45;
    cell.lossPct = 12.0;
    cell.outageDay = 10;
    cell.outageDays = 2;
    cell.heartbeatSeconds = 30.0;
    cell.selfShutdownThresholdSeconds = 200.0;
    const auto config = cell.toStudyConfig(99);
    EXPECT_EQ(config.fleetConfig.phoneCount, 3);
    EXPECT_EQ(config.fleetConfig.seed, 99u);
    EXPECT_DOUBLE_EQ(config.fleetConfig.transport.dataChannel.lossProb, 0.12);
    ASSERT_EQ(config.fleetConfig.transport.dataChannel.outages.size(), 1u);
    EXPECT_DOUBLE_EQ(config.fleetConfig.loggerConfig.heartbeatPeriod.asSecondsF(),
                     30.0);
    EXPECT_DOUBLE_EQ(config.selfShutdownThresholdSeconds, 200.0);
    EXPECT_LE(config.fleetConfig.enrollmentWindow.asSecondsF(),
              config.fleetConfig.campaign.asSecondsF());
}

TEST(ExperimentGrid, OsfaultAxesParseSweepAndMaterialize) {
    const experiment::Cell defaults;
    const auto grid = experiment::Grid::parse(
        R"({"flash_fault_per_khour": [0, 40], "mem_pressure_per_khour": 10,)"
        R"( "clock_skew_ppm": [-200, 0, 200], "radio_fault_per_khour": 20})",
        defaults);
    // 2 flash values x 3 skew values, with mem/radio pinned.
    ASSERT_EQ(grid.size(), 6u);
    // flash varies slower than skew (flash is the earlier nested loop).
    EXPECT_DOUBLE_EQ(grid.cells()[0].flashFaultPerKHour, 0.0);
    EXPECT_DOUBLE_EQ(grid.cells()[0].clockSkewPpm, -200.0);
    EXPECT_DOUBLE_EQ(grid.cells()[2].clockSkewPpm, 200.0);
    EXPECT_DOUBLE_EQ(grid.cells()[3].flashFaultPerKHour, 40.0);
    EXPECT_DOUBLE_EQ(grid.cells()[1].memPressurePerKHour, 10.0);
    EXPECT_DOUBLE_EQ(grid.cells()[1].radioFaultPerKHour, 20.0);

    // The cell materializes into the fleet's plane configuration.
    const auto config = grid.cells()[5].toStudyConfig(7);
    EXPECT_DOUBLE_EQ(config.fleetConfig.osfault.flash.faultsPerKHour, 40.0);
    EXPECT_DOUBLE_EQ(config.fleetConfig.osfault.memory.episodesPerKHour, 10.0);
    EXPECT_DOUBLE_EQ(config.fleetConfig.osfault.clock.skewPpm, 200.0);
    EXPECT_DOUBLE_EQ(config.fleetConfig.osfault.radio.faultsPerKHour, 20.0);
    EXPECT_TRUE(config.fleetConfig.osfault.anyEnabled());

    // Out-of-range values fail loudly.
    EXPECT_THROW(
        (void)experiment::Grid::parse(R"({"flash_fault_per_khour": -1})", defaults),
        std::runtime_error);
    EXPECT_THROW(
        (void)experiment::Grid::parse(R"({"clock_skew_ppm": 20000})", defaults),
        std::runtime_error);
}

TEST(ExperimentGrid, OsfaultAxesAppendToLabelsOnlyWhenActive) {
    experiment::Cell cell;
    // Pre-osfault labels are byte-stable: cells with every plane at rest
    // render exactly as they did before the axes existed (plot keys and
    // baselines keyed on labels survive the new axes).
    const std::string base = cell.label();
    EXPECT_EQ(base.find("flash="), std::string::npos);
    EXPECT_EQ(base.find("skew="), std::string::npos);
    cell.flashFaultPerKHour = 40.0;
    cell.clockSkewPpm = -200.0;
    const std::string active = cell.label();
    EXPECT_EQ(active.find(base), 0u);  // old prefix unchanged
    EXPECT_NE(active.find(" flash=40"), std::string::npos);
    EXPECT_NE(active.find(" skew=-200"), std::string::npos);
    EXPECT_EQ(active.find("mem="), std::string::npos);
    EXPECT_EQ(active.find("radio="), std::string::npos);
    // A cell with only plane defaults materializes no enabled planes.
    EXPECT_FALSE(experiment::Cell{}.toStudyConfig(1).fleetConfig.osfault.anyEnabled());
}

TEST(ExperimentGrid, LoadsFromFile) {
    const auto path =
        std::filesystem::temp_directory_path() / "symfail-grid-test.json";
    std::ofstream{path} << R"({"days": [20, 40]})";
    const auto grid = experiment::Grid::load(path.string(), experiment::Cell{});
    EXPECT_EQ(grid.size(), 2u);
    std::filesystem::remove(path);
    EXPECT_THROW(
        (void)experiment::Grid::load((path / "absent").string(), experiment::Cell{}),
        std::runtime_error);
}

// -- Runner ---------------------------------------------------------------------

/// A cheap trial body: deterministic metrics derived from the seed, so
/// runner tests don't pay for real campaigns.
experiment::TrialMetrics syntheticTrial(const experiment::Cell& cell,
                                        std::uint64_t seed) {
    return {{"seed_lo", static_cast<double>(seed & 0xFFFFFFFFu)},
            {"phones", static_cast<double>(cell.phones)}};
}

TEST(ExperimentRunner, TrialsNeverShareSubstreams) {
    experiment::RunnerOptions options;
    options.trials = 8;
    options.jobs = 4;
    options.masterSeed = 77;
    options.bootstrapResamples = 0;
    options.trialFn = syntheticTrial;
    const experiment::Runner runner{options};

    const auto summary = runner.run(
        experiment::Grid::parse(R"({"phones": [2, 3, 4]})", experiment::Cell{}));
    std::set<std::uint64_t> seeds;
    for (const auto& trial : summary.trials) seeds.insert(trial.seed);
    EXPECT_EQ(seeds.size(), summary.trials.size());
}

// The trials that run at once split the caller's threads: each gets
// threads / min(jobs, cells x trials), at least 1, for its campaign's
// phones.
TEST(ExperimentRunner, TrialsSplitTheCallersThreads) {
    experiment::RunnerOptions options;
    options.bootstrapResamples = 0;
    options.trialFn = [](const experiment::Cell&, std::uint64_t) {
        return experiment::TrialMetrics{{"threads", static_cast<double>(sim::taskThreads())}};
    };
    const auto oneCell = experiment::Grid::single(experiment::Cell{});
    const auto fourCells =
        experiment::Grid::parse(R"({"days": [10, 20, 30, 40]})", experiment::Cell{});
    const auto grantedThreads = [&](const experiment::Grid& grid, int jobs, int trials) {
        options.jobs = jobs;
        options.trials = trials;
        const auto summary = experiment::Runner{options}.run(grid);
        int granted = 0;
        for (const auto& cell : summary.cells) {
            const auto* threads = cell.find("threads");
            if (threads == nullptr) {
                ADD_FAILURE() << "no threads metric";
                return 0;
            }
            EXPECT_EQ(threads->min, threads->max);
            if (granted == 0) granted = static_cast<int>(threads->min);
            EXPECT_EQ(static_cast<int>(threads->min), granted);
        }
        return granted;
    };
    for (const int jobs : {1, 2, 3, 4, 8, 16}) {
        for (const int trials : {2, 8}) {
            EXPECT_EQ(grantedThreads(oneCell, jobs, trials),
                      std::max(1, machineThreads() / std::min(jobs, trials)))
                << "jobs " << jobs << ", trials " << trials;
        }
        // The trials of different cells run at once too.
        EXPECT_EQ(grantedThreads(fourCells, jobs, 1),
                  std::max(1, machineThreads() / std::min(jobs, 4)))
            << "jobs " << jobs << ", 4 cells";
    }
    // Inside a task the Runner splits the task's own share.
    sim::runWorkStealing(1, 1, [&](std::size_t) {
        EXPECT_EQ(grantedThreads(oneCell, 2, 8), 3);
        EXPECT_EQ(grantedThreads(oneCell, 16, 2), 3);
        EXPECT_EQ(grantedThreads(fourCells, 3, 1), 2);
        EXPECT_EQ(grantedThreads(fourCells, 16, 1), 1);
    }, 6);
}

TEST(ExperimentRunner, ThrowingTrialDoesNotPoisonSiblings) {
    // Blow up exactly cell 0 / trial 1, identified by its derived seed.
    const std::uint64_t poisoned = experiment::deriveTrialSeed(5, 0, 1);
    experiment::RunnerOptions options;
    options.trials = 4;
    options.jobs = 3;
    options.masterSeed = 5;
    options.bootstrapResamples = 0;
    options.trialFn = [&](const experiment::Cell& cell, std::uint64_t seed) {
        if (seed == poisoned) throw std::runtime_error("synthetic trial failure");
        return syntheticTrial(cell, seed);
    };
    const experiment::Runner runner{options};

    const auto summary =
        runner.run(experiment::Grid::parse(R"({"days": [10, 20]})", experiment::Cell{}));
    ASSERT_EQ(summary.cells.size(), 2u);
    EXPECT_EQ(summary.cells[0].failedCount, 1u);
    EXPECT_EQ(summary.cells[1].failedCount, 0u);
    EXPECT_EQ(summary.failedTrials(), 1u);
    ASSERT_EQ(summary.cells[0].errors.size(), 1u);
    EXPECT_NE(summary.cells[0].errors[0].find("synthetic trial failure"),
              std::string::npos);
    EXPECT_NE(summary.cells[0].errors[0].find("trial 1"), std::string::npos);
    // The poisoned cell still aggregates its three surviving trials.
    const auto* stats = summary.cells[0].find("seed_lo");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->n, 3u);
    const auto* sibling = summary.cells[1].find("seed_lo");
    ASSERT_NE(sibling, nullptr);
    EXPECT_EQ(sibling->n, 4u);
}

// The sweep JSON `params` list the axis table: a swept plane axis shows
// in them, and a cell with every plane at rest writes the params it wrote
// before the plane axes existed.
TEST(ExperimentRunner, SweepParamsFollowTheAxisTable) {
    experiment::RunnerOptions options;
    options.trials = 1;
    options.bootstrapResamples = 0;
    options.trialFn = syntheticTrial;
    const experiment::Runner runner{options};
    const auto json = experiment::sweepToJson(runner.run(experiment::Grid::parse(
        R"({"flash_fault_per_khour": [0, 20]})", experiment::Cell{})));
    const std::string defaults =
        R"("phones":5,"days":60,"loss_pct":5,"dup_pct":2,"reorder_pct":10,)"
        R"("outage_day":-1,"outage_days":3,"heartbeat_seconds":60,)"
        R"("self_shutdown_threshold_seconds":360)";
    EXPECT_NE(json.find(R"("params":{)" + defaults + "}"), std::string::npos) << json;
    EXPECT_NE(json.find(R"("params":{)" + defaults + R"(,"flash_fault_per_khour":20})"),
              std::string::npos)
        << json;
}

TEST(ExperimentRunner, RejectsInvalidOptions) {
    experiment::RunnerOptions options;
    options.trials = 0;
    const experiment::Runner runner{options};
    EXPECT_THROW((void)runner.run(experiment::Grid::single(experiment::Cell{})),
                 std::runtime_error);
}

TEST(ExperimentRunner, PublishesMetricsRollup) {
    obs::MetricsRegistry registry;
    experiment::RunnerOptions options;
    options.trials = 3;
    options.masterSeed = 21;
    options.bootstrapResamples = 0;
    options.metrics = &registry;
    options.trialFn = syntheticTrial;
    const experiment::Runner runner{options};
    (void)runner.run(experiment::Grid::single(experiment::Cell{}));
    const auto text = registry.renderPrometheus();
    EXPECT_NE(text.find("symfail_experiment_trials_run 3"), std::string::npos);
    EXPECT_NE(text.find("symfail_experiment_trials_failed 0"), std::string::npos);
    EXPECT_NE(text.find("symfail_experiment_seed_lo_mean"), std::string::npos);
}

// Every sweep cell carries the online monitor's alert/burst metrics, so
// sweeps can report fleet-health behaviour per cell.
TEST(ExperimentRunner, FieldTrialsCarryMonitorMetrics) {
    experiment::RunnerOptions options;
    options.trials = 1;
    options.masterSeed = 77;
    options.bootstrapResamples = 0;
    experiment::Cell cell;
    cell.phones = 2;
    cell.days = 10;
    const experiment::Runner runner{options};
    const auto summary = runner.run(experiment::Grid::single(cell));
    ASSERT_EQ(summary.cells.size(), 1u);
    for (const char* metric :
         {"monitor_alerts_fired", "monitor_alerts_cleared",
          "monitor_related_panics", "monitor_multi_bursts"}) {
        EXPECT_NE(summary.cells[0].find(metric), nullptr) << metric;
    }
}

// The trial's monitor classifies with the cell's self-shutdown threshold,
// as the batch analysis beside it does: at 30 s both relate the same
// panics (a monitor on the default 360 s related 19 here, not 14).
TEST(ExperimentRunner, FieldTrialMonitorUsesTheCellsThreshold) {
    experiment::Cell cell;
    cell.phones = 5;
    cell.days = 120;
    cell.lossPct = 0.0;
    cell.selfShutdownThresholdSeconds = 30.0;
    const auto metrics =
        experiment::fieldTrialMetrics(cell, experiment::deriveTrialSeed(7, 0, 0));
    const auto value = [&](std::string_view name) {
        for (const auto& [metric, v] : metrics) {
            if (metric == name) return v;
        }
        ADD_FAILURE() << "missing metric " << name;
        return 0.0;
    };
    const double panics = value("panic_count");
    EXPECT_GT(panics, 0.0);
    EXPECT_DOUBLE_EQ(value("monitor_related_panics"),
                     std::round(value("coalescence_related_fraction") * panics));
}

// Every sweep cell also carries the fleet-level reliability-growth
// rollups: model selection, trend, and holdout forecast scores.
TEST(ExperimentRunner, FieldTrialsCarrySrgmMetrics) {
    experiment::RunnerOptions options;
    options.trials = 1;
    options.masterSeed = 77;
    options.bootstrapResamples = 0;
    experiment::Cell cell;
    cell.phones = 2;
    cell.days = 10;
    const experiment::Runner runner{options};
    const auto summary = runner.run(experiment::Grid::single(cell));
    ASSERT_EQ(summary.cells.size(), 1u);
    for (const char* metric :
         {"srgm_events", "srgm_best_model", "srgm_laplace_trend",
          "srgm_ks_distance", "srgm_holdout_valid",
          "srgm_holdout_count_rel_err", "srgm_preq_gain_vs_hpp"}) {
        EXPECT_NE(summary.cells[0].find(metric), nullptr) << metric;
    }
    const auto* events = summary.cells[0].find("srgm_events");
    ASSERT_NE(events, nullptr);
    EXPECT_GE(events->mean, 0.0);
}

// -- Scheduling determinism (the tentpole guarantee) ---------------------------

/// Tiny-but-real grid: two cells of genuine field-study campaigns.
experiment::Grid tinyRealGrid() {
    experiment::Cell defaults;
    defaults.phones = 2;
    defaults.days = 8;
    return experiment::Grid::parse(R"({"loss_pct": [0, 20]})", defaults);
}

experiment::Summary runTinySweep(int jobs) {
    experiment::RunnerOptions options;
    options.trials = 3;
    options.jobs = jobs;
    options.masterSeed = 424242;
    options.bootstrapResamples = 200;
    const experiment::Runner runner{options};
    return runner.run(tinyRealGrid());
}

TEST(ExperimentDeterminism, ByteIdenticalAcrossJobCounts) {
    const auto j1 = runTinySweep(1);
    const auto json1 = experiment::sweepToJson(j1);
    // On a 4-thread host, jobs 1, 2, 4 and 16 grant each trial 4, 2, 1
    // and 1 threads, so the trials' phones run on workers and inline.
    for (const int jobs : {2, 4, 16}) {
        const auto summary = runTinySweep(jobs);
        EXPECT_EQ(json1, experiment::sweepToJson(summary))
            << "sweep JSON differs between --jobs 1 and --jobs " << jobs;
    }

    // CSV export is byte-identical too (both files).
    const auto base = std::filesystem::temp_directory_path() / "symfail-det";
    std::filesystem::remove_all(base);
    const auto read = [](const std::filesystem::path& p) {
        std::ifstream in{p, std::ios::binary};
        return std::string{std::istreambuf_iterator<char>{in},
                           std::istreambuf_iterator<char>{}};
    };
    const auto files1 = experiment::exportSweepCsv(j1, (base / "j1").string());
    const auto files4 =
        experiment::exportSweepCsv(runTinySweep(4), (base / "j4").string());
    ASSERT_EQ(files1.size(), files4.size());
    for (std::size_t i = 0; i < files1.size(); ++i) {
        EXPECT_EQ(read(files1[i]), read(files4[i]));
    }
    std::filesystem::remove_all(base);
}

// The acceptance bar for the fault planes: a sweep with a plane axis
// enabled is byte-identical across worker counts, and the enabled cell
// actually reports plane activity in its rolled-up metrics.
TEST(ExperimentDeterminism, OsfaultSweepIsByteIdenticalAcrossJobCounts) {
    experiment::Cell defaults;
    defaults.phones = 2;
    defaults.days = 8;
    defaults.memPressurePerKHour = 8.0;
    const auto grid =
        experiment::Grid::parse(R"({"flash_fault_per_khour": [0, 60]})", defaults);
    experiment::RunnerOptions options;
    options.trials = 2;
    options.masterSeed = 77;
    options.bootstrapResamples = 100;
    options.jobs = 1;
    const auto j1 = experiment::Runner{options}.run(grid);
    options.jobs = 4;
    const auto j4 = experiment::Runner{options}.run(grid);
    EXPECT_EQ(experiment::sweepToJson(j1), experiment::sweepToJson(j4));

    ASSERT_EQ(j1.cells.size(), 2u);
    for (const char* metric :
         {"osfault_flash_activations", "osfault_mem_oom_kills",
          "recovery_freeze_precision", "recovery_freeze_recall",
          "logger_record_anomalies"}) {
        EXPECT_NE(j1.cells[1].find(metric), nullptr) << metric;
    }
    const auto* flash = j1.cells[1].find("osfault_flash_activations");
    ASSERT_NE(flash, nullptr);
    EXPECT_GT(flash->mean, 0.0);
    const auto* flashOff = j1.cells[0].find("osfault_flash_activations");
    ASSERT_NE(flashOff, nullptr);
    EXPECT_EQ(flashOff->mean, 0.0);
}

TEST(ExperimentDeterminism, TrialsActuallyVary) {
    // Replication is pointless if every trial re-rolls the same numbers:
    // distinct substreams must produce dispersion in the raw counts.
    const auto summary = runTinySweep(1);
    const auto* hours = summary.cells[0].find("observed_phone_hours");
    ASSERT_NE(hours, nullptr);
    EXPECT_GT(hours->stddev, 0.0);
    EXPECT_LT(hours->ciLow, hours->ciHigh);
}

TEST(ExperimentDeterminism, MasterSeedChangesResults) {
    experiment::RunnerOptions a;
    a.trials = 2;
    a.masterSeed = 1;
    a.bootstrapResamples = 0;
    a.trialFn = syntheticTrial;
    experiment::RunnerOptions b = a;
    b.masterSeed = 2;
    const auto ja =
        experiment::sweepToJson(experiment::Runner{a}.run(tinyRealGrid()));
    const auto jb =
        experiment::sweepToJson(experiment::Runner{b}.run(tinyRealGrid()));
    EXPECT_NE(ja, jb);
}

}  // namespace
}  // namespace symfail
