// Tests for the online fleet-health monitor: the streaming tap, the alert
// engine, the online-vs-batch exactness contract, and the live campaign
// properties (non-perturbation, determinism, outage attribution).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/study.hpp"
#include "fleet/fleet.hpp"
#include "logger/records.hpp"
#include "monitor/alerts.hpp"
#include "monitor/health.hpp"
#include "monitor/monitor.hpp"
#include "monitor/stream.hpp"

namespace symfail {
namespace {

const sim::TimePoint kT0 = sim::TimePoint::origin();

// -- SegmentTap --------------------------------------------------------------

TEST(SegmentTap, ReleasesTheOpenTailIncrementally) {
    monitor::SegmentTap tap;
    EXPECT_EQ(tap.push(0, 1, "AB", kT0), "AB");
    // A re-send of a longer snapshot of the same open segment releases
    // only the growth.
    EXPECT_EQ(tap.push(0, 1, "ABCD", kT0), "CD");
    // A shorter stale duplicate releases nothing and loses nothing.
    EXPECT_EQ(tap.push(0, 1, "AB", kT0), "");
    EXPECT_EQ(tap.bytesReleased(), 4u);
}

TEST(SegmentTap, AdvancesWhenTheFrameProvesTheSegmentClosed) {
    monitor::SegmentTap tap;
    EXPECT_EQ(tap.push(0, 1, "ABCD", kT0), "ABCD");
    // segCount 2 on a frame *for segment 0* proves this copy is final.
    EXPECT_EQ(tap.push(0, 2, "ABCDEF", kT0), "EF");
    EXPECT_EQ(tap.push(1, 2, "XY", kT0), "XY");
    // Segment 1 is the new open tail: released, but held until closed.
    EXPECT_EQ(tap.buffered(), 1u);
}

TEST(SegmentTap, BuffersOutOfOrderSegments) {
    monitor::SegmentTap tap;
    EXPECT_EQ(tap.push(1, 2, "XY", kT0), "");  // segment 0 missing
    EXPECT_EQ(tap.buffered(), 1u);
    EXPECT_EQ(tap.push(0, 2, "AB", kT0), "ABXY");
}

TEST(SegmentTap, ShortStaleCopyDoesNotRetireTheSegment) {
    monitor::SegmentTap tap;
    // Knowing a later segment exists is NOT proof that the copy *held* is
    // the closed one: a stale short frame of segment 0 may precede the
    // full retransmit.
    EXPECT_EQ(tap.push(1, 2, "XY", kT0), "");
    EXPECT_EQ(tap.push(0, 1, "ABCD", kT0), "ABCD");  // stale tail snapshot
    EXPECT_EQ(tap.buffered(), 2u);                   // 0 not retired, 1 waiting
    EXPECT_EQ(tap.push(0, 2, "ABCDEF", kT0), "EFXY");
    // Segment 1 is the open tail now: released, but held until closed.
    EXPECT_EQ(tap.buffered(), 1u);
}

TEST(SegmentTap, SettleTimeoutReleasesTheExactlyFullSegment) {
    monitor::SegmentTap tap;
    // Segment 0 filled exactly to capacity and was acked first try: no
    // frame for it will ever advertise a later segment.
    EXPECT_EQ(tap.push(0, 1, "AAAA", kT0), "AAAA");
    EXPECT_EQ(tap.push(1, 2, "BB", kT0), "");
    EXPECT_EQ(tap.poll(kT0 + sim::Duration::hours(6)), "");
    EXPECT_EQ(tap.poll(kT0 + monitor::SegmentTap::kSettleTimeout), "BB");
}

TEST(SegmentTap, FlushDrainsEverythingUpToAGap) {
    monitor::SegmentTap tap;
    EXPECT_EQ(tap.push(0, 1, "AAAA", kT0), "AAAA");
    EXPECT_EQ(tap.push(1, 2, "BB", kT0), "");
    EXPECT_EQ(tap.push(3, 4, "DD", kT0), "");  // segment 2 lost
    EXPECT_EQ(tap.flush(), "BB");
    EXPECT_EQ(tap.buffered(), 1u);  // the copy behind the gap stays held
}

// -- LineBuffer --------------------------------------------------------------

TEST(LineBuffer, EmitsOnlyCompleteLines) {
    monitor::LineBuffer lines;
    EXPECT_EQ(lines.feed("AB"), "");
    EXPECT_EQ(lines.feed("C\nD"), "ABC\n");
    EXPECT_EQ(lines.pendingBytes(), 1u);
    EXPECT_EQ(lines.feed("E\nF\n"), "DE\nF\n");
    EXPECT_EQ(lines.pendingBytes(), 0u);
}

// -- AlertEngine -------------------------------------------------------------

/// A one-rule engine whose fleet value the test sets before each tick.
std::optional<double> gValue;

monitor::AlertRule fleetRule(const char* name, monitor::Comparison op, double threshold,
                             std::optional<double> clearThreshold) {
    return monitor::AlertRule{
        .name = name,
        .fleetValue = [](const monitor::WindowStats&) { return gValue; },
        .op = op,
        .threshold = threshold,
        .clearThreshold = clearThreshold};
}

void evaluateAt(monitor::AlertEngine& engine, sim::TimePoint at,
                std::optional<double> value) {
    gValue = value;
    engine.evaluate(at, monitor::WindowStats{}, {});
}

TEST(AlertEngine, FiresAndClearsWithHysteresis) {
    monitor::AlertEngine engine{
        {fleetRule("rate-high", monitor::Comparison::GreaterThan, 10.0, 5.0)}};
    evaluateAt(engine, kT0, 12.0);
    EXPECT_EQ(engine.fired(), 1u);
    EXPECT_EQ(engine.activeCount(), 1u);
    // 7 is below the firing threshold but above the clear threshold: held.
    evaluateAt(engine, kT0 + sim::Duration::hours(1), 7.0);
    EXPECT_EQ(engine.activeCount(), 1u);
    evaluateAt(engine, kT0 + sim::Duration::hours(2), 4.0);
    EXPECT_EQ(engine.cleared(), 1u);
    EXPECT_EQ(engine.activeCount(), 0u);
    ASSERT_EQ(engine.log().size(), 2u);
    EXPECT_TRUE(engine.log()[0].firing);
    EXPECT_FALSE(engine.log()[1].firing);
}

TEST(AlertEngine, UndefinedMetricClearsAFiringAlert) {
    monitor::AlertEngine engine{
        {fleetRule("mtbf-low", monitor::Comparison::LessThan, 60.0, std::nullopt)}};
    evaluateAt(engine, kT0, 30.0);
    EXPECT_EQ(engine.activeCount(), 1u);
    evaluateAt(engine, kT0 + sim::Duration::hours(1), std::nullopt);
    EXPECT_EQ(engine.activeCount(), 0u);
}

TEST(AlertEngine, PerPhoneRulesTrackEachPhoneSeparately) {
    monitor::AlertRule rule{
        .name = "silent",
        .phoneValue = [](const monitor::PhoneSilence& phone) { return phone.hours; },
        .op = monitor::Comparison::GreaterThan,
        .threshold = 0.5,
        .severity = monitor::Severity::Critical,
        .clearThreshold = std::nullopt};
    monitor::AlertEngine engine{{rule}};
    engine.evaluate(kT0, monitor::WindowStats{},
                    {{.name = "a", .hours = 1.0, .inOutage = false},
                     {.name = "b", .hours = 0.0, .inOutage = false}});
    EXPECT_EQ(engine.fired(), 1u);
    const auto labels = engine.activeLabels();
    ASSERT_EQ(labels.size(), 1u);
    EXPECT_EQ(labels[0], "silent/a");
}

// -- Online vs batch exactness ----------------------------------------------

core::FieldStudyResults analyzeBatch(
    const fleet::FleetConfig& fleetConfig, const std::vector<analysis::PhoneLog>& logs,
    double selfShutdownThresholdSeconds = analysis::kSelfShutdownThresholdSeconds) {
    core::StudyConfig config;
    config.fleetConfig = fleetConfig;
    config.selfShutdownThresholdSeconds = selfShutdownThresholdSeconds;
    const core::FailureStudy study{config};
    return study.analyzeLogs(logs);
}

std::uint64_t batchMultiBursts(const sim::FreqCounter& bursts) {
    std::uint64_t multi = 0;
    for (const auto& [length, count] : bursts.entries()) {
        if (length >= 2) multi += count;
    }
    return multi;
}

void expectMatchesBatch(const monitor::FleetMonitor& fleetMonitor,
                        const core::FieldStudyResults& batch) {
    const auto online = fleetMonitor.health().coalescence();
    const auto& offline = batch.fig5Coalescence;
    EXPECT_EQ(online.panicsResolved, offline.panics.size());
    EXPECT_EQ(online.relatedCount, offline.relatedCount);
    EXPECT_EQ(online.hlWithPanic, offline.hlWithPanic);
    EXPECT_EQ(online.hlTotal, offline.hlTotal);
    EXPECT_EQ(online.pendingPanics, 0u);
    EXPECT_EQ(fleetMonitor.health().burstLengths().entries(),
              batch.fig3BurstLengths.entries());
    EXPECT_EQ(fleetMonitor.health().multiBursts(),
              batchMultiBursts(batch.fig3BurstLengths));
}

TEST(MonitorReplay, MatchesBatchOnIdealLogs) {
    fleet::FleetConfig config;
    config.phoneCount = 10;
    config.campaign = sim::Duration::days(150);
    config.enrollmentWindow = sim::Duration::days(80);
    config.seed = 99;
    config.transport.enabled = false;
    const auto result = fleet::runCampaign(config);

    monitor::FleetMonitor fleetMonitor;
    fleetMonitor.replay(result.logs);
    expectMatchesBatch(fleetMonitor, analyzeBatch(config, result.logs));
}

// The monitor classifies self-shutdowns with the study's threshold, not a
// private copy: at 30 s fewer reboots count, so fewer panics coalesce.
TEST(MonitorReplay, MatchesBatchAtTheStudysThreshold) {
    fleet::FleetConfig config;
    config.phoneCount = 5;
    config.campaign = sim::Duration::days(120);
    config.enrollmentWindow = sim::Duration::days(60);
    config.seed = 7;
    const auto result = fleet::runCampaign(config);

    constexpr double kThreshold = 30.0;
    const auto batch = analyzeBatch(config, result.collectedLogs, kThreshold);
    ASSERT_LT(batch.fig5Coalescence.relatedCount,
              analyzeBatch(config, result.collectedLogs).fig5Coalescence.relatedCount);
    monitor::FleetMonitor fleetMonitor{
        monitor::MonitorConfig{.selfShutdownThresholdSeconds = kThreshold}};
    fleetMonitor.replay(result.collectedLogs);
    expectMatchesBatch(fleetMonitor, batch);
}

TEST(MonitorReplay, MatchesBatchOnLossyCollectedLogs) {
    fleet::FleetConfig config;
    config.phoneCount = 8;
    config.campaign = sim::Duration::days(120);
    config.enrollmentWindow = sim::Duration::days(60);
    config.seed = 424;
    config.transport.dataChannel.lossProb = 0.10;
    config.transport.ackChannel.lossProb = 0.10;
    const auto result = fleet::runCampaign(config);
    ASSERT_FALSE(result.collectedLogs.empty());

    monitor::FleetMonitor fleetMonitor;
    fleetMonitor.replay(result.collectedLogs);
    expectMatchesBatch(fleetMonitor, analyzeBatch(config, result.collectedLogs));
}

// -- Live campaign properties ------------------------------------------------

fleet::FleetConfig liveConfig() {
    fleet::FleetConfig config;
    config.phoneCount = 5;
    config.campaign = sim::Duration::days(45);
    config.enrollmentWindow = sim::Duration::days(20);
    config.seed = 33;
    return config;
}

void expectSameLogs(const std::vector<analysis::PhoneLog>& a,
                    const std::vector<analysis::PhoneLog>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].phoneName, b[i].phoneName);
        EXPECT_EQ(a[i].logFileContent, b[i].logFileContent);
    }
}

TEST(MonitorLive, DoesNotPerturbTheCampaign) {
    auto config = liveConfig();
    const auto bare = fleet::runCampaign(config);

    monitor::FleetMonitor fleetMonitor;
    config.obs.monitor = &fleetMonitor;
    const auto observed = fleet::runCampaign(config);
    EXPECT_GT(fleetMonitor.recordsConsumed(), 0u);

    expectSameLogs(bare.logs, observed.logs);
    expectSameLogs(bare.collectedLogs, observed.collectedLogs);
    EXPECT_EQ(bare.totalBoots, observed.totalBoots);
    // The monitor's own periodic tick adds dispatched events, so the raw
    // event count grows — but only grows; nothing campaign-side changes.
    EXPECT_GE(observed.simulatorEvents, bare.simulatorEvents);
    EXPECT_EQ(bare.transport.framesSent, observed.transport.framesSent);
}

TEST(MonitorLive, OutputIsDeterministicAcrossRuns) {
    const auto run = [] {
        auto config = liveConfig();
        auto fleetMonitor = std::make_unique<monitor::FleetMonitor>();
        config.obs.monitor = fleetMonitor.get();
        (void)fleet::runCampaign(config);
        return fleetMonitor->snapshotsJsonl() + "\x1e" +
               fleetMonitor->renderAlertLog() + "\x1e" +
               fleetMonitor->renderDashboard();
    };
    EXPECT_EQ(run(), run());
}

TEST(MonitorLive, LosslessStreamMatchesBatchAtCampaignEnd) {
    // With a perfect channel the tap's released stream equals the server's
    // reconstruction byte for byte, so the finalized online analytics must
    // equal the batch pipeline on the collected logs.
    fleet::FleetConfig config;
    config.phoneCount = 6;
    config.campaign = sim::Duration::days(90);
    config.enrollmentWindow = sim::Duration::days(40);
    config.seed = 77;
    config.transport.dataChannel.lossProb = 0.0;
    config.transport.dataChannel.dupProb = 0.0;
    config.transport.dataChannel.reorderProb = 0.0;
    config.transport.ackChannel.lossProb = 0.0;

    monitor::FleetMonitor fleetMonitor;
    config.obs.monitor = &fleetMonitor;
    const auto result = fleet::runCampaign(config);
    ASSERT_FALSE(result.collectedLogs.empty());

    std::size_t batchRecords = 0;
    for (const auto& log : result.collectedLogs) {
        batchRecords += logger::parseLogFile(log.logFileContent).size();
    }
    EXPECT_EQ(fleetMonitor.recordsConsumed(), batchRecords);
    expectMatchesBatch(fleetMonitor, analyzeBatch(config, result.collectedLogs));
}

TEST(MonitorLive, OutageSilenceIsAttributedToTheTransport) {
    fleet::FleetConfig config;
    config.phoneCount = 6;
    config.campaign = sim::Duration::days(30);
    config.enrollmentWindow = sim::Duration::days(10);
    config.seed = 11;
    const auto start = sim::TimePoint::origin() + sim::Duration::days(12);
    const transport::OutageWindow outage{start, start + sim::Duration::days(5)};
    config.transport.dataChannel.outages.push_back(outage);
    config.transport.ackChannel.outages.push_back(outage);

    monitor::FleetMonitor fleetMonitor;
    config.obs.monitor = &fleetMonitor;
    (void)fleet::runCampaign(config);

    bool outageAlert = false;
    bool suspectDuringOutage = false;
    for (const auto& event : fleetMonitor.alerts().log()) {
        if (!event.firing) continue;
        if (event.rule == "phone-outage") outageAlert = true;
        if (event.rule == "phone-silent" && event.time > start &&
            event.time < outage.end) {
            suspectDuringOutage = true;
        }
    }
    EXPECT_TRUE(outageAlert);
    // Silence inside the outage window is attributed to the transport, so
    // the device-suspect rule must not fire there.
    EXPECT_FALSE(suspectDuringOutage);
}

TEST(MonitorLive, SnapshotStreamIsWellFormedJsonl) {
    auto config = liveConfig();
    config.campaign = sim::Duration::days(20);
    monitor::FleetMonitor fleetMonitor;
    config.obs.monitor = &fleetMonitor;
    (void)fleet::runCampaign(config);

    const auto jsonl = fleetMonitor.snapshotsJsonl();
    ASSERT_FALSE(jsonl.empty());
    EXPECT_EQ(jsonl.back(), '\n');
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < jsonl.size()) {
        const auto end = jsonl.find('\n', start);
        ASSERT_NE(end, std::string::npos);
        EXPECT_EQ(jsonl[start], '{');
        EXPECT_EQ(jsonl[end - 1], '}');
        ++lines;
        start = end + 1;
    }
    EXPECT_EQ(lines, fleetMonitor.snapshots().size());

    obs::MetricsRegistry registry;
    fleetMonitor.publishMetrics(registry);
    const auto prometheus = registry.renderPrometheus();
    EXPECT_NE(prometheus.find("symfail_monitor_records_consumed"), std::string::npos);
    EXPECT_NE(prometheus.find("symfail_monitor_alerts_fired"), std::string::npos);
}

// -- Windowed reliability trend ----------------------------------------------

logger::LogFileEntry bootEntry(double atHours, logger::PriorShutdown prior,
                               double lastBeatHours) {
    logger::LogFileEntry entry;
    entry.type = logger::LogFileEntry::Type::Boot;
    entry.boot.time = kT0 + sim::Duration::fromSecondsF(atHours * 3600.0);
    entry.boot.prior = prior;
    entry.boot.lastBeatAt =
        kT0 + sim::Duration::fromSecondsF(lastBeatHours * 3600.0);
    return entry;
}

/// One phone observed over [0, spanHours] with freezes at `freezeHours`.
monitor::WindowStats statsForFreezes(const std::vector<double>& freezeHours,
                                     double spanHours) {
    monitor::HealthEngine engine;
    engine.onRecord("phone", bootEntry(0.0, logger::PriorShutdown::None, 0.0));
    for (const double t : freezeHours) {
        engine.onRecord("phone",
                        bootEntry(t + 0.01, logger::PriorShutdown::Freeze, t));
    }
    engine.onRecord("phone",
                    bootEntry(spanHours, logger::PriorShutdown::None, 0.0));
    engine.finalize();
    return engine.windowStats(kT0 +
                              sim::Duration::fromSecondsF(spanHours * 3600.0));
}

TEST(WindowTrend, LateClusteredFailuresReadAsRegressing) {
    std::vector<double> late;
    for (int i = 0; i < 20; ++i) late.push_back(90.0 + 0.4 * i);
    const auto stats = statsForFreezes(late, 100.0);
    EXPECT_EQ(stats.freezes, 20u);
    EXPECT_GT(stats.laplaceTrend, 2.0);
    // A rising intensity forecasts more failures next window than seen
    // in this one.
    EXPECT_GT(stats.forecastNextWindowFailures, 20.0);
}

TEST(WindowTrend, EarlyClusteredFailuresReadAsImproving) {
    std::vector<double> early;
    for (int i = 0; i < 20; ++i) early.push_back(1.0 + 0.4 * i);
    const auto stats = statsForFreezes(early, 100.0);
    EXPECT_LT(stats.laplaceTrend, -2.0);
    EXPECT_LT(stats.forecastNextWindowFailures, 5.0);
}

TEST(WindowTrend, UniformFailuresReadAsSteady) {
    std::vector<double> uniform;
    for (int i = 0; i < 20; ++i) uniform.push_back(2.5 + 5.0 * i);
    const auto stats = statsForFreezes(uniform, 100.0);
    EXPECT_NEAR(stats.laplaceTrend, 0.0, 1.0);
    EXPECT_NEAR(stats.forecastNextWindowFailures, 20.0, 8.0);
    // No failures at all: both statistics stay at their zero defaults.
    const auto clean = statsForFreezes({}, 100.0);
    EXPECT_EQ(clean.laplaceTrend, 0.0);
    EXPECT_EQ(clean.forecastNextWindowFailures, 0.0);
}

/// The default rule named `name`.
monitor::AlertRule defaultRule(std::string_view name) {
    for (auto& rule : monitor::defaultRules(monitor::MonitorConfig{})) {
        if (rule.name == name) return rule;
    }
    ADD_FAILURE() << "no default rule " << name;
    return {};
}

TEST(WindowTrend, ReliabilityRegressingRuleShipsByDefault) {
    const auto rule = defaultRule("reliability-regressing");
    ASSERT_NE(rule.fleetValue, nullptr);
    EXPECT_EQ(rule.phoneValue, nullptr);
    monitor::WindowStats window;
    window.laplaceTrend = 2.5;
    window.freezes = 4;
    window.selfShutdowns = 2;
    EXPECT_EQ(rule.fleetValue(window), 2.5);
    // Fewer than six windowed failures: the trend is undefined.
    window.selfShutdowns = 1;
    EXPECT_EQ(rule.fleetValue(window), std::nullopt);
}

TEST(AlertRules, DefaultRulesComputeTheirValuesInLogOrder) {
    const auto rules = monitor::defaultRules(monitor::MonitorConfig{});
    std::vector<std::string> names;
    for (const auto& rule : rules) {
        names.push_back(rule.name);
        EXPECT_NE(rule.fleetValue == nullptr, rule.phoneValue == nullptr) << rule.name;
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "fleet-failure-rate-high", "fleet-mtbf-low", "phone-silent",
                         "phone-outage", "reliability-regressing",
                         "panic-burst-activity", "crash-family-burst"}));

    monitor::WindowStats empty;
    monitor::WindowStats window;
    window.observedHours = 200.0;
    window.freezes = 3;
    window.selfShutdowns = 1;
    window.failureRatePerKiloHour = 20.0;
    window.mtbfAnyHours = 50.0;
    window.multiBursts = 4;
    window.topFamilyDumps = 11;
    const auto rate = defaultRule("fleet-failure-rate-high").fleetValue;
    EXPECT_EQ(rate(window), 20.0);
    EXPECT_EQ(rate(empty), std::nullopt);  // no observed hours
    const auto mtbf = defaultRule("fleet-mtbf-low").fleetValue;
    EXPECT_EQ(mtbf(window), 50.0);
    EXPECT_EQ(mtbf(empty), std::nullopt);  // no failure in the window
    EXPECT_EQ(defaultRule("panic-burst-activity").fleetValue(window), 4.0);
    EXPECT_EQ(defaultRule("panic-burst-activity").fleetValue(empty), 0.0);
    EXPECT_EQ(defaultRule("crash-family-burst").fleetValue(window), 11.0);
    EXPECT_EQ(defaultRule("crash-family-burst").fleetValue(empty), 0.0);

    // Silence is attributed: a phone in an outage window feeds only
    // phone-outage, any other enrolled phone only phone-silent, and a
    // phone before enrollment neither.
    const auto silent = defaultRule("phone-silent").phoneValue;
    const auto outage = defaultRule("phone-outage").phoneValue;
    const monitor::PhoneSilence quiet{.name = "p", .hours = 80.0, .inOutage = false};
    const monitor::PhoneSilence cutOff{.name = "p", .hours = 80.0, .inOutage = true};
    const monitor::PhoneSilence unenrolled{.name = "p", .hours = std::nullopt, .inOutage = false};
    EXPECT_EQ(silent(quiet), 80.0);
    EXPECT_EQ(outage(quiet), std::nullopt);
    EXPECT_EQ(silent(cutOff), std::nullopt);
    EXPECT_EQ(outage(cutOff), 80.0);
    EXPECT_EQ(silent(unenrolled), std::nullopt);
    EXPECT_EQ(outage(unenrolled), std::nullopt);
}

TEST(WindowTrend, SnapshotsAndMetricsCarryTheTrend) {
    auto config = liveConfig();
    config.campaign = sim::Duration::days(20);
    monitor::FleetMonitor fleetMonitor;
    config.obs.monitor = &fleetMonitor;
    (void)fleet::runCampaign(config);

    const auto jsonl = fleetMonitor.snapshotsJsonl();
    EXPECT_NE(jsonl.find("\"laplace_trend\":"), std::string::npos);
    EXPECT_NE(jsonl.find("\"forecast_next_window\":"), std::string::npos);
    EXPECT_NE(fleetMonitor.renderDashboard().find("reliability trend"),
              std::string::npos);

    obs::MetricsRegistry registry;
    fleetMonitor.publishMetrics(registry);
    const auto prometheus = registry.renderPrometheus();
    EXPECT_NE(prometheus.find("symfail_monitor_window_laplace_trend"),
              std::string::npos);
    EXPECT_NE(prometheus.find("symfail_monitor_forecast_failures_window"),
              std::string::npos);
}

}  // namespace
}  // namespace symfail
