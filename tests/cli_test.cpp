// Tests for the symfail CLI and the disk log I/O it builds on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/logio.hpp"
#include "fleet/fleet.hpp"

namespace symfail {
namespace {

class LogIoFixture : public ::testing::Test {
protected:
    // One directory per test: ctest runs this fixture's tests as parallel
    // processes, so a shared one let a test delete another's files.
    LogIoFixture()
        : dir_{std::filesystem::temp_directory_path() /
               (std::string{"symfail-logio-"} +
                ::testing::UnitTest::GetInstance()->current_test_info()->name())} {
        std::filesystem::remove_all(dir_);
    }
    ~LogIoFixture() override { std::filesystem::remove_all(dir_); }
    std::filesystem::path dir_;
};

TEST_F(LogIoFixture, SaveAndLoadRoundTrip) {
    std::vector<analysis::PhoneLog> logs{
        {"phone-0", "BOOT|1|NONE|0\n"},
        {"phone-1", "BOOT|2|NONE|0\nPANIC|3|USER|11||unspecified|50\n"},
    };
    const auto written = core::saveLogs(logs, dir_.string());
    EXPECT_EQ(written.size(), 2u);
    const auto loaded = core::loadLogs(dir_.string());
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded[0].phoneName, "phone-0");
    EXPECT_EQ(loaded[0].logFileContent, logs[0].logFileContent);
    EXPECT_EQ(loaded[1].phoneName, "phone-1");
    EXPECT_EQ(loaded[1].logFileContent, logs[1].logFileContent);
}

TEST_F(LogIoFixture, LoadIgnoresForeignFiles) {
    std::filesystem::create_directories(dir_);
    std::ofstream{dir_ / "notes.txt"} << "not a log";
    std::ofstream{dir_ / "a.log"} << "BOOT|1|NONE|0\n";
    const auto loaded = core::loadLogs(dir_.string());
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_EQ(loaded[0].phoneName, "a");
}

TEST_F(LogIoFixture, LoadMissingDirectoryThrows) {
    EXPECT_THROW((void)core::loadLogs((dir_ / "absent").string()),
                 std::runtime_error);
}

TEST_F(LogIoFixture, CampaignLogsSurviveTheRoundTrip) {
    fleet::FleetConfig config;
    config.phoneCount = 2;
    config.campaign = sim::Duration::days(10);
    config.enrollmentWindow = sim::Duration::days(2);
    config.seed = 71;
    const auto result = fleet::runCampaign(config);
    (void)core::saveLogs(result.logs, dir_.string());
    const auto loaded = core::loadLogs(dir_.string());
    const auto direct = analysis::LogDataset::build(result.logs);
    const auto replayed = analysis::LogDataset::build(loaded);
    EXPECT_EQ(direct.bootCount(), replayed.bootCount());
    EXPECT_EQ(direct.panics().size(), replayed.panics().size());
    EXPECT_EQ(direct.freezes().size(), replayed.freezes().size());
}

// -- CLI ------------------------------------------------------------------------

TEST(Cli, HelpAndUnknownCommands) {
    EXPECT_EQ(cli::runCli({"help"}), 0);
    EXPECT_EQ(cli::runCli({}), 2);
    EXPECT_EQ(cli::runCli({"frobnicate"}), 2);
}

TEST(Cli, TablesPrints) {
    EXPECT_EQ(cli::runCli({"tables"}), 0);
}

TEST(Cli, ForumRuns) {
    EXPECT_EQ(cli::runCli({"forum", "--reports", "120", "--seed", "4"}), 0);
}

TEST(Cli, ForumRejectsBadNumbers) {
    EXPECT_EQ(cli::runCli({"forum", "--reports", "many"}), 1);
}

// Regression: std::stoll accepts partial parses, so "--phones 25x" used to
// run a 25-phone campaign instead of failing.  Trailing junk must error.
TEST(Cli, RejectsPartiallyNumericOptions) {
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "25x", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "3d"}), 1);
    EXPECT_EQ(cli::runCli({"forum", "--reports", "25x"}), 1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--loss", "0.1%"}),
              1);
}

// The `--phones/--days/--seed` parsing is shared via campaignCell() and
// one number parser: every campaign-shaped subcommand must reject the
// same malformed inputs the same way, so a fifth subcommand can't
// quietly regress to partial parses.
TEST(Cli, FleetOptionParsingParityAcrossSubcommands) {
    for (const char* command :
         {"campaign", "transport", "obs", "sweep", "monitor", "osfault",
          "srgm", "perf"}) {
        EXPECT_EQ(cli::runCli({command, "--phones", "25x"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--phones", ""}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "3d"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "ten"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--seed", "0x9"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--phones", "-3"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--phones", "0"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "0"}), 1) << command;
        EXPECT_EQ(cli::runCli({command, "--days", "-7"}), 1) << command;
        // --days takes the grid's range, [1, 36500].
        EXPECT_EQ(cli::runCli({command, "--phones", "1", "--days", "40000"}), 1)
            << command;
        EXPECT_EQ(cli::runCli({command, "--seed", "nan"}), 1) << command;
        // A negative seed used to wrap to 2^64 - 1.
        EXPECT_EQ(cli::runCli({command, "--phones", "1", "--days", "2", "--seed", "-1"}),
                  1)
            << command;
    }
}

// Every axis flag reads its value exactly like its grid key: both accept
// the bounds and reject values just outside them, nan and inf, and the
// integer axes reject fractions.
TEST(Cli, AxisFlagsMatchGridKeys) {
    const auto token = [](double value) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        return std::string{buf};
    };
    for (const experiment::Axis& axis : experiment::axes()) {
        if (axis.flag.empty()) continue;
        const std::string key{axis.key};
        const auto flagReads = [&](const std::string& value) -> std::optional<double> {
            std::vector<std::string> args{std::string{axis.flag}, value};
            if (axis.flag == "--outage-days") {
                args.insert(args.end(), {"--outage-day", "0"});
            }
            try {
                return axis.get(cli::campaignCell(args, {}));
            } catch (const std::runtime_error&) {
                return std::nullopt;
            }
        };
        const auto gridReads = [&](const std::string& value) -> std::optional<double> {
            try {
                const auto grid =
                    experiment::Grid::parse("{\"" + key + "\": " + value + "}", {});
                return axis.get(grid.cells().front());
            } catch (const std::runtime_error&) {
                return std::nullopt;
            }
        };
        const double lo = axis.bounds.lo;
        const double hi = axis.bounds.hi;
        for (const double value : {lo, hi}) {
            EXPECT_EQ(flagReads(token(value)), value) << axis.flag << " " << value;
            EXPECT_EQ(gridReads(token(value)), value) << key << " " << value;
        }
        const double step = axis.bounds.integer ? 1.0 : 1e-6 * (hi - lo);
        std::vector<std::string> rejected{token(lo - step), token(hi + step), "nan",
                                          "inf", "-inf"};
        if (axis.bounds.integer) rejected.push_back("2.5");
        for (const std::string& value : rejected) {
            EXPECT_EQ(flagReads(value), std::nullopt) << axis.flag << " " << value;
            EXPECT_EQ(gridReads(value), std::nullopt) << key << " " << value;
        }
    }
    // Both read exponents, so an integer flag takes 1e3.
    EXPECT_EQ(cli::campaignCell({"--phones", "1e3"}, {}).phones, 1000);
    EXPECT_EQ(experiment::Grid::parse(R"({"phones": 1e3})", {}).cells()[0].phones, 1000);
}

// Every subcommand rejects, before anything runs, a flag it does not read
// and a value flag with no value.  Both used to be ignored, so a typo ran
// a different study than the one asked for and still exited 0.
TEST(Cli, RejectsUnknownFlagsAndMissingValues) {
    const std::string dir = std::filesystem::temp_directory_path().string();
    const auto expectRejected = [](const std::vector<std::string>& args,
                                   const std::string& why) {
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(cli::runCli(args), 1) << args[0];
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(why), std::string::npos) << args[0] << ": " << err;
    };
    const std::vector<std::vector<std::string>> lastFlagMissingItsValue{
        {"campaign", "--json"},         {"transport", "--loss"},
        {"analyze", dir, "--csv"},      {"crash", dir, "--json"},
        {"forum", "--seed"},            {"obs", "--trace"},
        {"monitor", "--snapshots"},     {"trace", "--record"},
        {"sweep", "--grid"},            {"osfault", "--min-precision"},
        {"srgm", "--holdout"},          {"perf", "--fleet-sizes"}};
    for (auto args : lastFlagMissingItsValue) {
        expectRejected(args, args.back() + " requires a value");
        args.back() = "--bogus";
        expectRejected(args, "unknown flag: --bogus");
    }
    expectRejected({"tables", "--bogus"}, "unknown flag: --bogus");
    expectRejected({"campaign", "5"}, "unexpected argument: 5");

    // Runs that used to exit 0: a typo, another subcommand's flag, a path
    // flag at the end, out-of-range outage and report counts.
    expectRejected({"forum", "--reprots", "10"}, "unknown flag: --reprots");
    expectRejected({"sweep", "--trials", "1", "--loss", "50"}, "unknown flag: --loss");
    expectRejected({"campaign", "--phones", "1", "--days", "1", "--json"},
                   "--json requires a value");
    expectRejected({"campaign", "--json", "--no-transport"}, "--json requires a value");
    expectRejected({"campaign", "--outage-day", "-5", "--outage-days", "2"},
                   "--outage-day must be in [-1, 36500]");
    expectRejected({"campaign", "--outage-day", "5", "--outage-days", "-3"},
                   "--outage-days must be in [0, 36500]");
    expectRejected({"campaign", "--outage-days", "2"},
                   "--outage-days requires --outage-day");
    expectRejected({"forum", "--reports", "-5"}, "--reports must be in [1, 100000]");
    // Without the transport, monitor and trace would watch nothing.
    expectRejected({"monitor", "--no-transport"}, "unknown flag: --no-transport");
    expectRejected({"trace", "--no-transport"}, "unknown flag: --no-transport");

    // --record is checked before the campaign runs: a signed ID (which
    // used to read as 2^64 - 1) and a phone the campaign does not have
    // used to fail only after the whole campaign.
    const auto expectRejectedUpFront = [](const std::vector<std::string>& args,
                                          const std::string& why) {
        ::testing::internal::CaptureStdout();
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(cli::runCli(args), 1);
        const std::string err = ::testing::internal::GetCapturedStderr();
        const std::string out = ::testing::internal::GetCapturedStdout();
        EXPECT_NE(err.find(why), std::string::npos) << err;
        EXPECT_EQ(out, "") << "the campaign ran before the check";
    };
    expectRejectedUpFront(
        {"trace", "--phones", "1", "--days", "2", "--record", "phone-0#-1"},
        "--record expects PHONE#ID with a decimal ID, got phone-0#-1");
    expectRejectedUpFront(
        {"trace", "--phones", "1", "--days", "2", "--record", "phone-1#0"},
        "--record names no phone of this campaign (phone-0 .. phone-0), got phone-1#0");
}

// Output paths are validated before the campaign runs: a typo'd path must
// exit non-zero up front instead of burning minutes and then failing.
TEST(Cli, RejectsUnwritableOutputPathsUpFront) {
    const char* bad = "/symfail-definitely-missing/out.file";
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--json", bad}),
              1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--trace", bad}),
              1);
    EXPECT_EQ(cli::runCli({"obs", "--phones", "2", "--days", "2",
                           "--metrics", bad}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days",
                           "2", "--json", bad}),
              1);
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "1", "--days", "2",
                           "--snapshots", bad}),
              1);
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "1", "--days", "2",
                           "--alerts", bad}),
              1);
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2",
                           "--json", bad}),
              1);
    // A directory where a file is expected is rejected too.
    const auto dir = std::filesystem::temp_directory_path();
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--json", dir.string()}),
              1);
}

TEST(Cli, MonitorRunsLiveAndWritesOutputs) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-monitor";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto snapshots = (dir / "snapshots.jsonl").string();
    const auto alerts = (dir / "alerts.log").string();
    const auto metrics = (dir / "metrics.prom").string();
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "2", "--days", "15", "--seed",
                           "5", "--snapshots", snapshots, "--alerts", alerts,
                           "--metrics", metrics}),
              0);
    EXPECT_GT(std::filesystem::file_size(snapshots), 0u);
    EXPECT_GT(std::filesystem::file_size(metrics), 0u);
    std::filesystem::remove_all(dir);
}

// Replay mode re-checks the online-vs-batch exactness contract from the
// CLI and exits non-zero on a mismatch; a passing run is the smoke test.
TEST(Cli, MonitorReplayMatchesBatch) {
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "3", "--days", "30", "--seed",
                           "9", "--replay"}),
              0);
}

TEST(Cli, MonitorRejectsBadKnobs) {
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "2", "--days", "2",
                           "--tick-hours", "0"}),
              1);
    EXPECT_EQ(cli::runCli({"monitor", "--phones", "2", "--days", "2",
                           "--silence-hours", "-4"}),
              1);
}

TEST(Cli, AnalyzeRequiresDirectory) {
    EXPECT_EQ(cli::runCli({"analyze"}), 2);
    EXPECT_EQ(cli::runCli({"analyze", "/definitely/not/there"}), 1);
}

TEST(Cli, CampaignAnalyzeWorkflow) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-flow";
    std::filesystem::remove_all(dir);
    // A small campaign dumping logs and JSON to disk...
    const auto jsonPath = (dir / "results.json").string();
    std::filesystem::create_directories(dir);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "12", "--seed",
                           "9", "--logs", dir.string(), "--json", jsonPath}),
              0);
    ASSERT_TRUE(std::filesystem::exists(dir / "phone-0.log"));
    EXPECT_TRUE(std::filesystem::exists(jsonPath));
    // ...then the analysis-only pass over those logs.
    EXPECT_EQ(cli::runCli({"analyze", dir.string()}), 0);
    std::filesystem::remove_all(dir);
}

TEST(Cli, CampaignWritesTraceAndMetricsFiles) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-obs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto tracePath = (dir / "trace.json").string();
    const auto metricsPath = (dir / "metrics.prom").string();
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "8", "--seed",
                           "3", "--trace", tracePath, "--metrics", metricsPath}),
              0);
    ASSERT_TRUE(std::filesystem::exists(tracePath));
    ASSERT_TRUE(std::filesystem::exists(metricsPath));

    std::ifstream traceFile{tracePath};
    const std::string trace{std::istreambuf_iterator<char>{traceFile},
                            std::istreambuf_iterator<char>{}};
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"symbos\""), std::string::npos);

    std::ifstream metricsFile{metricsPath};
    const std::string metrics{std::istreambuf_iterator<char>{metricsFile},
                              std::istreambuf_iterator<char>{}};
    EXPECT_NE(metrics.find("# TYPE symfail_fleet_boots counter"),
              std::string::npos);
    EXPECT_NE(metrics.find("symfail_transport_delivery_ratio"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, ObsSubcommandRuns) {
    EXPECT_EQ(cli::runCli({"obs", "--phones", "2", "--days", "6", "--seed", "5"}),
              0);
}

TEST(Cli, SweepRunsAndWritesArtifacts) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-sweep";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto gridPath = (dir / "grid.json").string();
    std::ofstream{gridPath} << R"({"loss_pct": [0, 25]})";
    const auto jsonPath = (dir / "sweep.json").string();
    const auto metricsPath = (dir / "sweep.prom").string();
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "2", "--jobs", "2", "--phones",
                           "2", "--days", "8", "--seed", "13", "--bootstrap",
                           "100", "--grid", gridPath, "--json", jsonPath, "--csv",
                           dir.string(), "--metrics", metricsPath}),
              0);
    ASSERT_TRUE(std::filesystem::exists(jsonPath));
    ASSERT_TRUE(std::filesystem::exists(dir / "sweep_summary.csv"));
    ASSERT_TRUE(std::filesystem::exists(dir / "sweep_trials.csv"));
    std::ifstream jsonFile{jsonPath};
    const std::string json{std::istreambuf_iterator<char>{jsonFile},
                           std::istreambuf_iterator<char>{}};
    EXPECT_NE(json.find("\"sweep\""), std::string::npos);
    EXPECT_NE(json.find("\"mtbf_freeze_hours\""), std::string::npos);
    EXPECT_NE(json.find("\"ci95\""), std::string::npos);
    std::ifstream metricsFile{metricsPath};
    const std::string metrics{std::istreambuf_iterator<char>{metricsFile},
                              std::istreambuf_iterator<char>{}};
    EXPECT_NE(metrics.find("symfail_experiment_trials_run 4"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, SweepRejectsBadOptions) {
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "2x"}), 1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "0"}), 1);
    EXPECT_EQ(cli::runCli({"sweep", "--jobs", "0"}), 1);
    // Range checks run before narrowing: these used to run 1 trial and 2
    // workers.
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "4294967297", "--phones", "1", "--days",
                           "2"}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--jobs", "4294967298", "--phones",
                           "1", "--days", "2"}),
              1);
    // --bootstrap is bounded; 0 disables it.
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--bootstrap", "-1", "--phones", "1",
                           "--days", "2"}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--bootstrap", "1e7", "--phones",
                           "1", "--days", "2"}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--grid", "/definitely/not/there.json"}), 1);
}

// An unknown grid key (a typo'd axis name) must fail the sweep up front
// instead of silently sweeping nothing — checked end to end through the
// CLI, grid file and all.
TEST(Cli, SweepRejectsUnknownGridKeys) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-cli-badgrid";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto gridPath = (dir / "grid.json").string();
    std::ofstream{gridPath} << R"({"flash_fault_per_khours": [0, 40]})";
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days",
                           "2", "--grid", gridPath}),
              1);
    std::filesystem::remove_all(dir);
}

// -- osfault --------------------------------------------------------------------

TEST(Cli, SrgmRunsAndWritesOutputs) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-srgm-cli";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto json = (dir / "srgm.json").string();
    const auto metrics = (dir / "metrics.prom").string();
    const auto csvDir = (dir / "csv").string();
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                           "5", "--json", json, "--csv", csvDir, "--metrics",
                           metrics}),
              0);
    EXPECT_TRUE(std::filesystem::exists(json));
    EXPECT_TRUE(std::filesystem::exists(csvDir + "/srgm_fits.csv"));
    EXPECT_TRUE(std::filesystem::exists(csvDir + "/srgm_holdout.csv"));
    std::ifstream jsonIn{json};
    const std::string body{std::istreambuf_iterator<char>{jsonIn}, {}};
    EXPECT_NE(body.find("\"fleet\""), std::string::npos);
    EXPECT_NE(body.find("\"holdout\""), std::string::npos);
    std::ifstream promIn{metrics};
    const std::string prom{std::istreambuf_iterator<char>{promIn}, {}};
    EXPECT_NE(prom.find("symfail_srgm_fleet_events"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, SrgmJsonIsByteIdenticalAcrossRuns) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-srgm-det";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string bodies[2];
    for (int run = 0; run < 2; ++run) {
        const auto json = (dir / ("run" + std::to_string(run) + ".json")).string();
        ASSERT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                               "5", "--fleet-only", "--json", json}),
                  0);
        std::ifstream in{json};
        bodies[run] = {std::istreambuf_iterator<char>{in}, {}};
    }
    ASSERT_FALSE(bodies[0].empty());
    EXPECT_EQ(bodies[0], bodies[1]);
    std::filesystem::remove_all(dir);
}

TEST(Cli, SrgmCheckGatesOnBounds) {
    // Generous bounds pass.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                           "5", "--fleet-only", "--check"}),
              0);
    // An unreachable prequential-gain floor must fail the check.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed",
                           "5", "--fleet-only", "--check", "--min-preq-gain",
                           "1e8"}),
              1);
    // Malformed knobs fail before any campaign runs.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "2", "--days", "2", "--holdout",
                           "1.5"}),
              1);
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "2", "--days", "2", "--check",
                           "--max-count-err", "abc"}),
              1);
    // NaN passes no bound: it used to disable the KS gate (this run passed
    // the check) and to split the holdout at nan.
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "4", "--days", "60", "--seed", "5",
                           "--fleet-only", "--check", "--max-ks", "nan"}),
              1);
    EXPECT_EQ(cli::runCli({"srgm", "--phones", "2", "--days", "2", "--holdout", "nan"}),
              1);
}

// -- perf -----------------------------------------------------------------------

namespace {
/// Concatenates every `"accounting": {...}` object of a perf JSON document
/// — the deterministic half of each cell (the "host" sections measure
/// wall time and RSS and legitimately differ between runs).
std::string accountingSections(const std::string& json) {
    std::string sections;
    std::size_t pos = 0;
    while ((pos = json.find("\"accounting\"", pos)) != std::string::npos) {
        const std::size_t end = json.find("\"host\"", pos);
        EXPECT_NE(end, std::string::npos);
        if (end == std::string::npos) break;
        sections += json.substr(pos, end - pos);
        pos = end;
    }
    return sections;
}
}  // namespace

TEST(Cli, PerfRunsAndWritesOutputs) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-perf-cli";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto json = (dir / "perf.json").string();
    const auto metrics = (dir / "metrics.prom").string();
    const auto csvDir = (dir / "csv").string();
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2,3", "--days", "2",
                           "--seed", "5", "--json", json, "--csv", csvDir,
                           "--metrics", metrics}),
              0);
    std::ifstream jsonIn{json};
    const std::string body{std::istreambuf_iterator<char>{jsonIn}, {}};
    EXPECT_NE(body.find("\"accounting\""), std::string::npos);
    EXPECT_NE(body.find("\"bytes_per_phone\""), std::string::npos);
    EXPECT_NE(body.find("\"phone_hours_per_sec\""), std::string::npos);
    EXPECT_NE(body.find("\"peak_rss_bytes\""), std::string::npos);
    // Every accounted subsystem shows up in the breakdown.
    for (const char* subsystem :
         {"\"simkernel\"", "\"phone\"", "\"logger\"", "\"transport\"",
          "\"server\"", "\"analysis\""}) {
        EXPECT_NE(body.find(subsystem), std::string::npos) << subsystem;
    }
    EXPECT_TRUE(std::filesystem::exists(csvDir + "/perf_scaling.csv"));
    std::ifstream promIn{metrics};
    const std::string prom{std::istreambuf_iterator<char>{promIn}, {}};
    EXPECT_NE(prom.find("symfail_perf_bytes_per_phone"), std::string::npos);
    EXPECT_NE(prom.find("symfail_perf_phone_hours_per_sec"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(Cli, PerfAccountingJsonIsByteIdenticalAcrossRuns) {
    const auto dir = std::filesystem::temp_directory_path() / "symfail-perf-det";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string sections[2];
    for (int run = 0; run < 2; ++run) {
        const auto json = (dir / ("run" + std::to_string(run) + ".json")).string();
        ASSERT_EQ(cli::runCli({"perf", "--fleet-sizes", "3", "--days", "3",
                               "--seed", "9", "--json", json}),
                  0);
        std::ifstream in{json};
        const std::string body{std::istreambuf_iterator<char>{in}, {}};
        sections[run] = accountingSections(body);
    }
    ASSERT_FALSE(sections[0].empty());
    EXPECT_EQ(sections[0], sections[1]);
    std::filesystem::remove_all(dir);
}

TEST(Cli, PerfCheckGatesOnBounds) {
    // Generous bounds pass.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2", "--seed",
                           "5", "--check", "--max-bytes-per-phone", "1e12"}),
              0);
    // An unreachable footprint bound must fail the check.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2", "--seed",
                           "5", "--check", "--max-bytes-per-phone", "1"}),
              1);
    // ... as must an unreachable throughput floor.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2", "--days", "2", "--seed",
                           "5", "--check", "--min-phone-hours-per-sec", "1e12"}),
              1);
    // Malformed knobs fail before any campaign runs.
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2,x", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "2,", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--fleet-sizes", "0", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--sample-hours", "0", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--stride", "1x", "--days", "2"}), 1);
    EXPECT_EQ(cli::runCli({"perf", "--days", "2", "--check",
                           "--max-bytes-per-phone", "abc"}),
              1);
}

TEST(Cli, OsfaultPlaneFlagsAreAcceptedAndBounded) {
    // The plane knobs ride campaign and sweep as well as osfault.
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "6", "--seed",
                           "3", "--flash-fault", "10", "--mem-pressure", "2"}),
              0);
    // Out-of-range or malformed rates fail before any campaign runs.
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2",
                           "--flash-fault", "-5"}),
              1);
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "2",
                           "--clock-skew", "20000"}),
              1);
    EXPECT_EQ(cli::runCli({"sweep", "--trials", "1", "--phones", "1", "--days",
                           "2", "--radio-fault", "1x"}),
              1);
    // Non-finite rates used to stamp every BOOT record 0 and exit 0.
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2", "--clock-skew",
                           "nan"}),
              1);
    EXPECT_EQ(cli::runCli({"campaign", "--phones", "2", "--days", "2", "--flash-fault",
                           "inf"}),
              1);
}

TEST(Cli, OsfaultSubcommandRunsAndChecks) {
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "20", "--seed",
                           "5", "--flash-fault", "20", "--mem-pressure", "5",
                           "--clock-skew", "100", "--radio-fault", "10"}),
              0);
    // --check with default (zero) bounds always passes.
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "20", "--seed",
                           "5", "--mem-pressure", "5", "--check"}),
              0);
    // Bounds live in [0, 1].
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "2", "--days", "2", "--check",
                           "--min-precision", "1.5"}),
              1);
    // Perfection under heavy faults is unattainable: the check must FAIL
    // (exit 1) rather than quietly bless a degraded measurement.
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "3", "--days", "30", "--seed",
                           "5", "--flash-fault", "80", "--mem-pressure", "20",
                           "--radio-fault", "30", "--check", "--min-precision",
                           "1", "--min-recall", "1", "--min-capture", "1"}),
              1);
    // NaN bounds used to pass that same run with "osfault check: OK".
    EXPECT_EQ(cli::runCli({"osfault", "--phones", "3", "--days", "30", "--seed",
                           "5", "--flash-fault", "80", "--mem-pressure", "20",
                           "--radio-fault", "30", "--check", "--min-precision",
                           "nan", "--min-recall", "nan", "--min-capture", "nan"}),
              1);
}

// -- Artifacts on a full device -------------------------------------------------
//
// Every artifact goes through obs::writeFile.  Each case aims one at Linux
// /dev/full, which opens and refuses every write, as a full disk does; a
// directory artifact gets there through a file name symlinked to it.  The
// command must exit 1 with `cannot write <path>` and never claim the file
// with a `wrote …` line.  Before the shared writer, an artifact smaller
// than a stream buffer vanished and the command exited 0.

class FullDevice : public ::testing::Test {
protected:
    FullDevice()
        : dir_{std::filesystem::temp_directory_path() /
               (std::string{"symfail-full-"} +
                ::testing::UnitTest::GetInstance()->current_test_info()->name())} {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    ~FullDevice() override { std::filesystem::remove_all(dir_); }

    /// A directory whose entry `name` is a symlink to /dev/full.
    [[nodiscard]] std::string dirWithFullEntry(const std::string& name) const {
        std::filesystem::create_symlink("/dev/full", dir_ / name);
        return dir_.string();
    }

    static void expectWriteFails(const std::vector<std::string>& args,
                                 const std::string& path) {
        ::testing::internal::CaptureStdout();
        ::testing::internal::CaptureStderr();
        const int status = cli::runCli(args);
        const std::string err = ::testing::internal::GetCapturedStderr();
        const std::string out = ::testing::internal::GetCapturedStdout();
        EXPECT_EQ(status, 1);
        EXPECT_NE(err.find("cannot write " + path), std::string::npos) << err;
        EXPECT_EQ(out.find("wrote "), std::string::npos) << out;
    }

    std::filesystem::path dir_;
};

TEST_F(FullDevice, CampaignJsonFailsTheCommand) {
    expectWriteFails({"campaign", "--phones", "1", "--days", "2", "--json", "/dev/full"},
                     "/dev/full");
}

TEST_F(FullDevice, CrashJsonFailsTheCommand) {
    fleet::FleetConfig config;
    config.phoneCount = 1;
    config.campaign = sim::Duration::days(2);
    config.enrollmentWindow = sim::Duration::days(1);
    (void)core::saveLogs(fleet::runCampaign(config).logs, dir_.string());
    expectWriteFails({"crash", dir_.string(), "--json", "/dev/full"}, "/dev/full");
}

TEST_F(FullDevice, SweepJsonFailsTheCommand) {
    expectWriteFails({"sweep", "--trials", "1", "--phones", "1", "--days", "2",
                      "--json", "/dev/full"},
                     "/dev/full");
}

TEST_F(FullDevice, FieldCsvFailsTheCommand) {
    const std::string dir = dirWithFullEntry("table2_panics.csv");
    expectWriteFails({"campaign", "--phones", "1", "--days", "2", "--csv", dir},
                     dir + "/table2_panics.csv");
}

TEST_F(FullDevice, PerfCsvFailsTheCommand) {
    const std::string dir = dirWithFullEntry("perf_scaling.csv");
    expectWriteFails({"perf", "--fleet-sizes", "1", "--days", "1", "--csv", dir},
                     dir + "/perf_scaling.csv");
}

TEST_F(FullDevice, SavedLogFailsTheCommand) {
    const std::string dir = dirWithFullEntry("phone-0.log");
    expectWriteFails({"campaign", "--phones", "1", "--days", "2", "--logs", dir},
                     dir + "/phone-0.log");
}

TEST_F(FullDevice, ChromeTraceFailsTheCommand) {
    expectWriteFails({"campaign", "--phones", "1", "--days", "2", "--trace", "/dev/full"},
                     "/dev/full");
}

TEST_F(FullDevice, MetricsFileFailsTheCommand) {
    const std::string dir = dirWithFullEntry("metrics.csv");
    fleet::FleetConfig config;
    config.phoneCount = 1;
    config.campaign = sim::Duration::days(2);
    config.enrollmentWindow = sim::Duration::days(1);
    (void)core::saveLogs(fleet::runCampaign(config).logs, dir);
    expectWriteFails({"crash", dir, "--metrics", dir + "/metrics.csv"},
                     dir + "/metrics.csv");
}

// The alert log of a two-day, one-phone campaign is empty: the writer
// still issues a write, so the full device refuses it.
TEST_F(FullDevice, TextArtifactFailsTheCommand) {
    expectWriteFails({"monitor", "--phones", "1", "--days", "2", "--alerts", "/dev/full"},
                     "/dev/full");
    expectWriteFails({"trace", "--phones", "1", "--days", "2", "--json", "/dev/full"},
                     "/dev/full");
}

}  // namespace
}  // namespace symfail
