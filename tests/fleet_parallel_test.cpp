// Worker-count invariance of a campaign.
//
// fleet::runCampaign runs each phone in its own simulator on the caller's
// thread share: every hardware thread outside a pool task, and inside one
// the share its run granted (a sweep trial's part of the machine; one
// thread, the calling thread, unless the run grants more).  No share may
// change what the campaign computes.  Each case below is a plane and
// observer mix that tests/golden_test.cpp pins, or a fleet shape the
// windows must handle (a single phone; more phones than threads), and each
// runs three times: on all threads, as the one task of a run that grants
// it 2 threads, and as the one task of a run that grants 1, so its phones
// run inline.  Every artifact must match byte for byte: the campaign JSON,
// the phones' Log Files, the collected logs, the validity report, the
// monitor's snapshots, alerts, dashboard and metrics, the campaign's
// metrics and the provenance JSON and report.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/study.hpp"
#include "experiment/grid.hpp"
#include "fleet/observer.hpp"
#include "monitor/monitor.hpp"
#include "obs/accountant.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "osfault/validity.hpp"
#include "simkernel/pool.hpp"

namespace symfail {
namespace {

/// What a case attaches besides the campaign itself.
struct Observers {
    bool monitor{false};
    bool provenance{false};
    bool metrics{false};
    bool accountant{false};
};

/// Every artifact of one run, by name.
using Artifacts = std::vector<std::pair<std::string, std::string>>;

Artifacts runOnce(core::StudyConfig config, const Observers& observers) {
    std::optional<monitor::FleetMonitor> fleetMonitor;
    obs::ProvenanceTracker provenance;
    obs::MetricsRegistry registry;
    obs::ResourceAccountant accountant;
    fleet::ObsOptions& obs = config.fleetConfig.obs;
    if (observers.monitor) {
        fleetMonitor.emplace(monitor::MonitorConfig{
            .selfShutdownThresholdSeconds = config.selfShutdownThresholdSeconds});
        obs.monitor = &*fleetMonitor;
    }
    if (observers.provenance) obs.provenance = &provenance;
    if (observers.metrics) obs.metrics = &registry;
    if (observers.accountant) {
        obs.accountant = &accountant;
        obs.accountingInterval = sim::Duration::hours(6);
    }
    const auto results = core::FailureStudy{config}.runFieldStudy();

    Artifacts out;
    out.emplace_back("json", core::fieldResultsToJson(results));
    std::string logs;
    for (const auto& log : results.fleet.logs) logs += log.phoneName + '\n' + log.logFileContent;
    out.emplace_back("logs", std::move(logs));
    std::string collected;
    for (const auto& log : results.fleet.collectedLogs) {
        collected += log.phoneName + ' ' + std::to_string(log.coverage) + '\n' + log.logFileContent;
    }
    out.emplace_back("collected", std::move(collected));
    out.emplace_back("validity", osfault::render(
                                     osfault::ValidityReport{results.evaluation, results.fleet.osfault}));
    out.emplace_back("events", std::to_string(results.fleet.simulatorEvents));
    if (fleetMonitor) {
        obs::MetricsRegistry monitorMetrics;
        fleetMonitor->publishMetrics(monitorMetrics);
        out.emplace_back("snapshots", fleetMonitor->snapshotsJsonl());
        out.emplace_back("alerts", fleetMonitor->renderAlertLog());
        out.emplace_back("dashboard", fleetMonitor->renderDashboard());
        out.emplace_back("monitor metrics", monitorMetrics.renderPrometheus());
    }
    if (observers.provenance) {
        EXPECT_TRUE(provenance.summary().conserved());
        out.emplace_back("provenance json", provenance.renderJson());
        out.emplace_back("provenance report", provenance.renderReport());
    }
    if (observers.metrics) out.emplace_back("metrics", registry.renderPrometheus());
    if (observers.accountant) {
        std::string ledger;
        for (const auto& account : accountant.accounts()) {
            ledger += account.subsystem + ' ' + std::to_string(account.peakBytes) + ' ' +
                      std::to_string(account.currentBytes) + ' ' +
                      std::to_string(account.samples) + '\n';
        }
        ledger += std::to_string(accountant.peakTotalBytes());
        out.emplace_back("ledger", std::move(ledger));
    }
    return out;
}

/// Runs `config` as the one task of a run that grants it `threads`.
Artifacts runAsTask(const core::StudyConfig& config, const Observers& observers,
                    int threads) {
    Artifacts out;
    sim::runWorkStealing(
        1, 1,
        [&](std::size_t) {
            EXPECT_EQ(sim::taskThreads(), threads);
            out = runOnce(config, observers);
        },
        threads);
    return out;
}

/// Runs `config` on all threads, on 2 and inline, and compares every
/// artifact.
void expectSameOnAnyWorkerCount(const core::StudyConfig& config, const Observers& observers) {
    const Artifacts parallel = runOnce(config, observers);
    for (const auto& [threads, leg] : {std::pair{2, "2 threads"}, std::pair{1, "inline"}}) {
        const Artifacts other = runAsTask(config, observers, threads);
        ASSERT_EQ(parallel.size(), other.size());
        for (std::size_t i = 0; i < parallel.size(); ++i) {
            EXPECT_EQ(parallel[i].first, other[i].first);
            EXPECT_TRUE(parallel[i].second == other[i].second)
                << parallel[i].first << " differs between all threads and " << leg;
        }
    }
}

/// `symfail campaign --phones 5 --days 60 --seed 11`.
core::StudyConfig shortCampaign(std::uint64_t seed = 11) {
    core::StudyConfig config;
    fleet::FleetConfig& fleet = config.fleetConfig;
    fleet.phoneCount = 5;
    fleet.campaign = sim::Duration::days(60);
    fleet.enrollmentWindow = fleet.campaign / 2;
    fleet.seed = seed;
    return config;
}

/// The lossy transport with all four planes, as a grid cell.
experiment::Cell lossyAllPlanes(int phones, long long days) {
    experiment::Cell cell;
    cell.phones = phones;
    cell.days = days;
    cell.lossPct = 20.0;
    cell.dupPct = 5.0;
    cell.reorderPct = 10.0;
    cell.flashFaultPerKHour = 20.0;
    cell.memPressurePerKHour = 4.0;
    cell.clockSkewPpm = 200.0;
    cell.radioFaultPerKHour = 10.0;
    return cell;
}

TEST(FleetParallel, DefaultTransport) {
    expectSameOnAnyWorkerCount(shortCampaign(), {});
}

TEST(FleetParallel, LossyTransportAndAllFaultPlanes) {
    expectSameOnAnyWorkerCount(lossyAllPlanes(5, 60).toStudyConfig(11), {.metrics = true});
}

TEST(FleetParallel, PerfbenchLossyCellWithMonitorAndProvenance) {
    experiment::Cell cell = lossyAllPlanes(25, 120);
    cell.outageDay = 40;
    cell.outageDays = 5;
    expectSameOnAnyWorkerCount(cell.toStudyConfig(2007),
                               {.monitor = true, .provenance = true, .metrics = true});
}

TEST(FleetParallel, HighRatePlanesAndClockJumps) {
    core::StudyConfig config = shortCampaign();
    osfault::PlaneConfig& planes = config.fleetConfig.osfault;
    planes.flash.faultsPerKHour = 200.0;
    planes.memory.episodesPerKHour = 40.0;
    planes.clock.skewPpm = 200.0;
    planes.clock.jumpsPerKHour = 20.0;
    planes.radio.faultsPerKHour = 10.0;
    expectSameOnAnyWorkerCount(config, {.monitor = true, .provenance = true});
}

TEST(FleetParallel, PlaneEffectsDueAtTheCampaignEnd) {
    for (const auto& [seed, flash, skewPpm, jumps] :
         {std::tuple{3, 0.0, -3'000.0, 300.0}, std::tuple{4, 500.0, 50.0, 50.0}}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        core::StudyConfig config = shortCampaign(static_cast<std::uint64_t>(seed));
        osfault::PlaneConfig& planes = config.fleetConfig.osfault;
        planes.flash.faultsPerKHour = flash;
        planes.clock.skewPpm = skewPpm;
        planes.clock.jumpsPerKHour = jumps;
        expectSameOnAnyWorkerCount(config, {});
    }
}

TEST(FleetParallel, MonitorDefaultCampaign) {
    experiment::Cell cell;
    cell.phones = 25;
    cell.days = 120;
    expectSameOnAnyWorkerCount(cell.toStudyConfig(11), {.monitor = true});
}

TEST(FleetParallel, MonitorOutageCampaign) {
    experiment::Cell cell;
    cell.phones = 4;
    cell.days = 40;
    cell.outageDay = 12;
    cell.outageDays = 5;
    expectSameOnAnyWorkerCount(cell.toStudyConfig(11), {.monitor = true});
}

TEST(FleetParallel, ProvenanceTraceCell) {
    experiment::Cell cell;
    cell.phones = 4;
    cell.days = 40;
    cell.lossPct = 25.0;
    cell.outageDay = 12;
    cell.outageDays = 5;
    expectSameOnAnyWorkerCount(cell.toStudyConfig(11), {.monitor = true, .provenance = true});
}

TEST(FleetParallel, OnePhone) {
    experiment::Cell cell = lossyAllPlanes(1, 30);
    expectSameOnAnyWorkerCount(
        cell.toStudyConfig(5),
        {.monitor = true, .provenance = true, .metrics = true, .accountant = true});
}

TEST(FleetParallel, MorePhonesThanThreads) {
    experiment::Cell cell = lossyAllPlanes(2 * sim::taskThreads() + 1, 45);
    cell.outageDay = 10;
    cell.outageDays = 4;
    expectSameOnAnyWorkerCount(
        cell.toStudyConfig(8),
        {.monitor = true, .provenance = true, .metrics = true, .accountant = true});
}

/// Stops the fleet simulator at the campaign origin, as perfbench's
/// set-up-only runs do, and counts what it sees afterwards.
class OriginStop final : public fleet::CampaignObserver {
public:
    void onCampaignBegin(sim::Simulator& simulator, const fleet::FleetConfig&) override {
        simulator.scheduleAt(sim::TimePoint::origin(), "test.stop",
                             [&simulator]() { simulator.stop(); });
    }
    void onFrameAccepted(const transport::IngestResult&) override { ++frames; }
    void onCampaignEnd(sim::TimePoint) override { ended = true; }

    int frames{0};
    bool ended{false};
};

TEST(FleetParallel, StopAtTheOriginEndsTheCampaignBeforeAnyPhoneRuns) {
    fleet::FleetConfig config = shortCampaign().fleetConfig;
    OriginStop stop;
    config.obs.monitor = &stop;
    const fleet::FleetResult result = fleet::runCampaign(config);
    EXPECT_TRUE(stop.ended);
    EXPECT_EQ(stop.frames, 0);
    EXPECT_EQ(result.simulatorEvents, 1u);  // the stop event itself
    EXPECT_EQ(result.totalBoots, 0u);
    ASSERT_EQ(result.logs.size(), 5u);
    for (const auto& log : result.logs) EXPECT_TRUE(log.logFileContent.empty()) << log.phoneName;
    EXPECT_TRUE(result.collectedLogs.empty());
}

}  // namespace
}  // namespace symfail
