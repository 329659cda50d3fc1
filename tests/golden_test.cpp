// Golden digests of the regenerated paper artifacts.
//
// Run-vs-run checks such as Integration.CampaignIsDeterministic cannot see
// a change that shifts every run the same way.  These tests pin a 64-bit
// FNV-1a digest of core::fieldResultsToJson for the paper campaign, three
// short fixed-seed campaigns and perfbench's lossy cell, plus one of what
// the collection server holds at campaign end, so any drift in what the
// pipeline computes fails tier-1.  The JSON digest equals the FNV-1a of the file
// `symfail campaign ... --json` writes for the command quoted on each
// test.  The high-rate plane
// campaign also pins the osfault validity report, which alone carries
// the plane statistics.  The monitor and provenance
// pins do the same for the files `symfail monitor` and `symfail trace`
// write: snapshots, alert log, dashboard and metrics; provenance JSON,
// report and flow trace.  The metrics pin covers the Prometheus file
// `symfail campaign --metrics` writes, whose counters no other output
// carries.
//
// The digests hold for one toolchain: gcc 12.2.0, the compiler
// perfbench/pinned.json is pinned for.  Floating-point formatting and libm
// may differ on any other compiler, so there the tests skip and print the
// digests they computed.  A re-pin needs a one-line reason in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/study.hpp"
#include "experiment/grid.hpp"
#include "monitor/monitor.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "osfault/validity.hpp"

namespace symfail {
namespace {

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    __GNUC_MINOR__ == 2 && __GNUC_PATCHLEVEL__ == 0
constexpr bool kPinnedToolchain = true;
#else
constexpr bool kPinnedToolchain = false;
#endif

std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ULL) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string hex(std::uint64_t digest) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(digest));
    return buf;
}

/// Digest of the server's per-phone copies: name, coverage and content.
std::uint64_t collectedDigest(const fleet::FleetResult& fleet) {
    std::uint64_t hash = fnv1a64({});
    for (const auto& log : fleet.collectedLogs) {
        char coverage[32];
        std::snprintf(coverage, sizeof coverage, "%.17g", log.coverage);
        hash = fnv1a64(log.phoneName + '\n' + coverage + '\n', hash);
        hash = fnv1a64(log.logFileContent, hash);
    }
    return hash;
}

/// `symfail campaign --phones 5 --days 60 --seed 11`: the CLI halves the
/// enrollment window when the default one outlasts the campaign.
core::StudyConfig shortCampaign() {
    core::StudyConfig config;
    fleet::FleetConfig& fleet = config.fleetConfig;
    fleet.phoneCount = 5;
    fleet.campaign = sim::Duration::days(60);
    fleet.enrollmentWindow = fleet.campaign / 2;
    fleet.seed = 11;
    return config;
}

void expectDigests(const core::StudyConfig& config, std::uint64_t json,
                   std::uint64_t collected) {
    const auto results = core::FailureStudy{config}.runFieldStudy();
    ASSERT_FALSE(results.fleet.collectedLogs.empty());
    const std::uint64_t jsonDigest = fnv1a64(core::fieldResultsToJson(results));
    const std::uint64_t collectedDigestValue = collectedDigest(results.fleet);
    if (!kPinnedToolchain) {
        GTEST_SKIP() << "digests are pinned for gcc 12.2.0; this toolchain computed json "
                     << hex(jsonDigest) << ", collected " << hex(collectedDigestValue);
    }
    EXPECT_EQ(hex(jsonDigest), hex(json));
    EXPECT_EQ(hex(collectedDigestValue), hex(collected));
}

TEST(GoldenDigest, PaperCampaign) {
    // symfail campaign --json FILE (25 phones x 425 days, seed 2007): the
    // file whose sha256 (31caf049...) ROADMAP.md and perfbench/pinned.json
    // name as the paper artifacts' contract.
    expectDigests(core::StudyConfig{}, 0x41b0402a6f6eff0fULL, 0x0b6533a57ce5d4ccULL);
}

TEST(GoldenDigest, CampaignWithTransport) {
    // symfail campaign --phones 5 --days 60 --seed 11 --json FILE
    const core::StudyConfig config = shortCampaign();
    ASSERT_TRUE(config.fleetConfig.transport.enabled);
    expectDigests(config, 0xa390c25580a3478aULL, 0x8d4c5d6928bea98eULL);
}

TEST(GoldenDigest, CampaignWithLossyTransportAndAllFaultPlanes) {
    // symfail campaign --phones 5 --days 60 --seed 11 --loss 20 --dup 5
    //     --reorder 10 --flash-fault 20 --mem-pressure 4 --clock-skew 200
    //     --radio-fault 10 --json FILE
    core::StudyConfig config = shortCampaign();
    fleet::TransportOptions& transport = config.fleetConfig.transport;
    transport.dataChannel.lossProb = 0.20;
    transport.dataChannel.dupProb = 0.05;
    transport.dataChannel.reorderProb = 0.10;
    transport.ackChannel.lossProb = 0.20;
    osfault::PlaneConfig& planes = config.fleetConfig.osfault;
    planes.flash.faultsPerKHour = 20.0;
    planes.memory.episodesPerKHour = 4.0;
    planes.clock.skewPpm = 200.0;
    planes.radio.faultsPerKHour = 10.0;
    expectDigests(config, 0x9d1e74e9bb68a609ULL, 0x08d8e538e8d3eed4ULL);
}

TEST(GoldenDigest, PerfbenchLossyCell) {
    // perfbench's lossy_monitored cell, operation 0 (seed 2007):
    // symfail campaign --phones 25 --days 120 --seed 2007 --loss 20 --dup 5
    //     --reorder 10 --outage-day 40 --outage-days 5 --flash-fault 20
    //     --mem-pressure 4 --clock-skew 200 --radio-fault 10 --json FILE
    // writes the file perfbench/pinned.json pins by its sha256
    // (d22779c3...).  Long enough for a squeezed daemon's heartbeat to meet
    // a battery tick at the same instant, which the short campaigns never
    // show.
    experiment::Cell cell;
    cell.phones = 25;
    cell.days = 120;
    cell.lossPct = 20.0;
    cell.dupPct = 5.0;
    cell.reorderPct = 10.0;
    cell.outageDay = 40;
    cell.outageDays = 5;
    cell.flashFaultPerKHour = 20.0;
    cell.memPressurePerKHour = 4.0;
    cell.clockSkewPpm = 200.0;
    cell.radioFaultPerKHour = 10.0;
    expectDigests(cell.toStudyConfig(2007), 0x4a103df2025ffff7ULL, 0x1cff0cf9aa72f5a9ULL);
}

/// A pinned list of (what, computed, expected) digests: skips off the
/// pinned toolchain and prints what it computed.
void expectPinned(const std::vector<std::pair<std::string, std::uint64_t>>& computed,
                  const std::vector<std::uint64_t>& expected) {
    ASSERT_EQ(computed.size(), expected.size());
    if (!kPinnedToolchain) {
        std::string printed;
        for (const auto& [what, digest] : computed) printed += " " + what + " " + hex(digest);
        GTEST_SKIP() << "digests are pinned for gcc 12.2.0; this toolchain computed"
                     << printed;
    }
    for (std::size_t i = 0; i < computed.size(); ++i) {
        EXPECT_EQ(hex(computed[i].second), hex(expected[i])) << computed[i].first;
    }
}

TEST(GoldenDigest, CampaignWithHighRatePlanesAndClockJumps) {
    // symfail campaign --phones 5 --days 60 --seed 11 --flash-fault 200
    //     --mem-pressure 40 --clock-skew 200 --radio-fault 10 --json FILE,
    // plus 20 clock jumps per 1000 hours, which no flag sets.  Torn and
    // dropped writes, OOM kills, restarts and monotonicity violations
    // show only in the validity report, so it is pinned too.
    core::StudyConfig config = shortCampaign();
    osfault::PlaneConfig& planes = config.fleetConfig.osfault;
    planes.flash.faultsPerKHour = 200.0;
    planes.memory.episodesPerKHour = 40.0;
    planes.clock.skewPpm = 200.0;
    planes.clock.jumpsPerKHour = 20.0;
    planes.radio.faultsPerKHour = 10.0;
    const auto results = core::FailureStudy{config}.runFieldStudy();
    const osfault::CampaignPlaneStats& stats = results.fleet.osfault;
    EXPECT_GT(stats.flash.tornWrites, 0u);
    EXPECT_GT(stats.flash.droppedWrites, 0u);
    EXPECT_GT(stats.memory.oomKills, 0u);
    EXPECT_GT(stats.memory.restarts, 0u);
    EXPECT_GT(stats.clock.monotonicityViolations, 0u);
    const osfault::ValidityReport report{results.evaluation, stats};
    expectPinned({{"json", fnv1a64(core::fieldResultsToJson(results))},
                  {"collected", collectedDigest(results.fleet)},
                  {"validity", fnv1a64(osfault::render(report))}},
                 {0x123a78e09e4019aaULL, 0x9f70ecf6b17ccf88ULL, 0x7466a5584612478fULL});
}

TEST(GoldenDigest, PlaneEffectsDueAtTheCampaignEnd) {
    // Two campaigns whose last plane effect waits on a logger tick due by
    // the end: seed 3 under a -3,000 ppm clock with 300 jumps per 1000
    // hours (the first read after the last backward jump), and seed 4
    // under flash 500/kh and a 50 ppm clock with 50 jumps per 1000 hours
    // (a torn write armed against the beats file).  Real AO ticks count
    // both by the end, so the validity reports must too.
    struct Planes {
        std::uint64_t seed;
        double flash, skewPpm, jumps;
    };
    std::vector<std::pair<std::string, std::uint64_t>> computed;
    for (const Planes& p : {Planes{3, 0.0, -3'000.0, 300.0}, Planes{4, 500.0, 50.0, 50.0}}) {
        core::StudyConfig config = shortCampaign();
        config.fleetConfig.seed = p.seed;
        osfault::PlaneConfig& planes = config.fleetConfig.osfault;
        planes.flash.faultsPerKHour = p.flash;
        planes.clock.skewPpm = p.skewPpm;
        planes.clock.jumpsPerKHour = p.jumps;
        const auto results = core::FailureStudy{config}.runFieldStudy();
        const osfault::ValidityReport report{results.evaluation, results.fleet.osfault};
        const std::string seed = " seed " + std::to_string(p.seed);
        computed.emplace_back("json" + seed, fnv1a64(core::fieldResultsToJson(results)));
        computed.emplace_back("validity" + seed, fnv1a64(osfault::render(report)));
    }
    expectPinned(computed, {0x0c9d351684e9bd80ULL, 0x2d3f8c3bcf3ceb4aULL, 0xf43f7ecf158e0facULL,
                            0xe4e96f3dfa2e9492ULL});
}

/// Runs `symfail monitor` live for `cell` at seed 11 and pins its four files.
void expectMonitorDigests(const experiment::Cell& cell,
                          const std::vector<std::uint64_t>& expected) {
    core::StudyConfig config = cell.toStudyConfig(11);
    monitor::FleetMonitor fleetMonitor;
    config.fleetConfig.obs.monitor = &fleetMonitor;
    (void)fleet::runCampaign(config.fleetConfig);
    obs::MetricsRegistry registry;
    fleetMonitor.publishMetrics(registry);
    expectPinned({{"snapshots", fnv1a64(fleetMonitor.snapshotsJsonl())},
                  {"alerts", fnv1a64(fleetMonitor.renderAlertLog())},
                  {"dashboard", fnv1a64(fleetMonitor.renderDashboard())},
                  {"metrics", fnv1a64(registry.renderPrometheus())}},
                 expected);
}

TEST(GoldenDigest, MonitorDefaultCampaign) {
    // symfail monitor --seed 11 (25 phones x 120 days): every rule but
    // phone-outage fires.
    experiment::Cell cell;
    cell.phones = 25;
    cell.days = 120;
    expectMonitorDigests(cell, {0xd9adb5023a368e89ULL, 0xce07ef17df521a6bULL,
                                0x5665881f2be8cd7dULL, 0x3b75da2a864bd062ULL});
}

TEST(GoldenDigest, MonitorOutageCampaign) {
    // symfail monitor --phones 4 --days 40 --seed 11 --outage-day 12
    //     --outage-days 5 --snapshots FILE --alerts FILE --metrics FILE
    experiment::Cell cell;
    cell.phones = 4;
    cell.days = 40;
    cell.outageDay = 12;
    cell.outageDays = 5;
    expectMonitorDigests(cell, {0xacfde92778d10d94ULL, 0x0bb13bd0b65c44deULL,
                                0x3d289b830a2ea45cULL, 0x2a9411e5c91420a8ULL});
}

TEST(GoldenDigest, CampaignMetrics) {
    // symfail campaign --phones 5 --days 60 --seed 11 --loss 20 --dup 5
    //     --reorder 10 --flash-fault 20 --mem-pressure 4 --clock-skew 200
    //     --radio-fault 10 --metrics FILE.prom, with no profiler attached:
    //     every logger, osfault and transport counter the campaign
    //     publishes.
    experiment::Cell cell;
    cell.phones = 5;
    cell.days = 60;
    cell.lossPct = 20.0;
    cell.dupPct = 5.0;
    cell.reorderPct = 10.0;
    cell.flashFaultPerKHour = 20.0;
    cell.memPressurePerKHour = 4.0;
    cell.clockSkewPpm = 200.0;
    cell.radioFaultPerKHour = 10.0;
    core::StudyConfig config = cell.toStudyConfig(11);
    obs::MetricsRegistry registry;
    config.fleetConfig.obs.metrics = &registry;
    (void)fleet::runCampaign(config.fleetConfig);
    expectPinned({{"metrics", fnv1a64(registry.renderPrometheus())}}, {0xc16cee988938792aULL});
}

TEST(GoldenDigest, ProvenanceTrace) {
    // symfail trace --phones 4 --days 40 --seed 11 --loss 25 --outage-day 12
    //     --outage-days 5 --flow-all --json FILE --trace FILE
    experiment::Cell cell;
    cell.phones = 4;
    cell.days = 40;
    cell.lossPct = 25.0;
    cell.outageDay = 12;
    cell.outageDays = 5;
    core::StudyConfig config = cell.toStudyConfig(11);
    obs::ProvenanceTracker provenance;
    provenance.setFlowAllRecords(true);
    obs::ChromeTraceWriter trace;
    monitor::FleetMonitor fleetMonitor;
    config.fleetConfig.obs.provenance = &provenance;
    config.fleetConfig.obs.trace = &trace;
    config.fleetConfig.obs.monitor = &fleetMonitor;
    (void)fleet::runCampaign(config.fleetConfig);
    ASSERT_TRUE(provenance.summary().conserved());
    expectPinned({{"json", fnv1a64(provenance.renderJson())},
                  {"report", fnv1a64(provenance.renderReport())},
                  {"trace", fnv1a64(trace.json())}},
                 {0x7c8ad2ba83e477fbULL, 0x6e2eeeea11d619e2ULL, 0x0a46a131efed05b7ULL});
}

}  // namespace
}  // namespace symfail
