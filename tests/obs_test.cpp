// Tests for the observability layer: metrics registry + exporters, the
// Chrome trace writer, the campaign profiler, and — most importantly —
// the determinism contracts: tracing a campaign twice yields a
// byte-identical trace, and tracing at all never perturbs the campaign.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/accountant.hpp"
#include "obs/file.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "simkernel/simulator.hpp"

namespace symfail::obs {
namespace {

// ---------------------------------------------------------- artifact writer

/// A scratch directory named after the running test, removed afterwards.
class ArtifactWriter : public ::testing::Test {
protected:
    ArtifactWriter()
        : dir_{std::filesystem::temp_directory_path() /
               (std::string{"symfail-writer-"} +
                ::testing::UnitTest::GetInstance()->current_test_info()->name())} {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    ~ArtifactWriter() override { std::filesystem::remove_all(dir_); }

    static std::string slurp(const std::filesystem::path& path) {
        std::ifstream in{path, std::ios::binary};
        return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
    }

    /// The message writeFile threw for `path`, or "" if it did not throw.
    static std::string failure(const std::filesystem::path& path,
                               const std::string& content) {
        try {
            writeFile(path, content);
        } catch (const std::runtime_error& error) {
            return error.what();
        }
        return "";
    }

    std::filesystem::path dir_;
};

TEST_F(ArtifactWriter, ReplacesTheFileWithExactBytes) {
    const auto path = dir_ / "out.bin";
    writeFile(path, "an older and longer artifact\n");
    const std::string bytes{"a\r\nb\0c", 6};
    writeFile(path, bytes);
    EXPECT_EQ(slurp(path), bytes);
}

// Linux /dev/full opens and refuses every write, the way a full disk
// does.  An artifact smaller than any stream buffer used to vanish there
// without an error; an empty one must fail too.
TEST_F(ArtifactWriter, FullDeviceFailsEvenAnEmptyArtifact) {
    for (const std::size_t size : {0UL, 3UL, 1UL << 20}) {
        EXPECT_EQ(failure("/dev/full", std::string(size, 'x')), "cannot write /dev/full")
            << size << " bytes";
    }
}

TEST_F(ArtifactWriter, MissingParentDirectoryFails) {
    const auto path = dir_ / "absent" / "out.json";
    EXPECT_EQ(failure(path, "{}"), "cannot write " + path.string());
}

TEST_F(ArtifactWriter, DirectoryWriterCreatesTheDirectoryAndListsPaths) {
    const auto sub = dir_ / "sub";
    const auto written = writeDirectory(sub, {{"a.csv", "x,y\n1,2\n"}, {"b.csv", ""}});
    EXPECT_EQ(written, (std::vector<std::string>{(sub / "a.csv").string(),
                                                 (sub / "b.csv").string()}));
    EXPECT_EQ(slurp(sub / "a.csv"), "x,y\n1,2\n");
    EXPECT_TRUE(std::filesystem::exists(sub / "b.csv"));
    EXPECT_EQ(std::filesystem::file_size(sub / "b.csv"), 0u);
}

TEST_F(ArtifactWriter, DirectoryWriterStopsAtTheFirstFailedFile) {
    std::filesystem::create_symlink("/dev/full", dir_ / "b.csv");
    try {
        (void)writeDirectory(dir_,
                             {{"a.csv", "1\n"}, {"b.csv", "2\n"}, {"c.csv", "3\n"}});
        ADD_FAILURE() << "writeDirectory did not throw";
    } catch (const std::runtime_error& error) {
        EXPECT_EQ(std::string{error.what()}, "cannot write " + (dir_ / "b.csv").string());
    }
    EXPECT_EQ(slurp(dir_ / "a.csv"), "1\n");
    EXPECT_FALSE(std::filesystem::exists(dir_ / "c.csv"));
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterAndGaugeRoundTrip) {
    MetricsRegistry registry;
    auto& hits = registry.counter("web", "hits", "Requests served");
    hits.inc();
    hits.inc(41);
    EXPECT_EQ(hits.value(), 42u);

    auto& temp = registry.gauge("web", "temperature");
    temp.set(20.0);
    temp.add(1.5);
    EXPECT_DOUBLE_EQ(temp.value(), 21.5);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(Metrics, SameNameReturnsSameInstrument) {
    MetricsRegistry registry;
    registry.counter("a", "n").inc();
    registry.counter("a", "n").inc();
    EXPECT_EQ(registry.counter("a", "n").value(), 2u);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(Metrics, KindMismatchThrows) {
    MetricsRegistry registry;
    registry.counter("a", "n");
    EXPECT_THROW(registry.gauge("a", "n"), std::logic_error);
}

TEST(Metrics, LabeledMetricsAreDistinct) {
    MetricsRegistry registry;
    registry.gauge("transport", "coverage", "phone", "p-0").set(1.0);
    registry.gauge("transport", "coverage", "phone", "p-1").set(0.5);
    EXPECT_EQ(registry.size(), 2u);
    const auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].labels, "phone=\"p-0\"");
    EXPECT_EQ(samples[1].labels, "phone=\"p-1\"");
}

TEST(Metrics, HistogramBucketsAreCumulativeInSnapshot) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "latency", {1.0, 5.0, 10.0});
    h.observe(0.5);      // bucket <=1
    h.observe(3.0, 2);   // bucket <=5
    h.observe(100.0);    // +Inf
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 6.0 + 100.0);

    const auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    const auto& buckets = samples[0].buckets;
    ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + +Inf
    EXPECT_EQ(buckets[0].second, 1u);
    EXPECT_EQ(buckets[1].second, 3u);
    EXPECT_EQ(buckets[2].second, 3u);
    EXPECT_EQ(buckets[3].second, 4u);  // +Inf is total
    EXPECT_EQ(buckets[3].second, samples[0].count);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
    MetricsRegistry registry;
    EXPECT_THROW(registry.histogram("t", "bad", {5.0, 1.0}), std::logic_error);
}

TEST(Metrics, PrometheusExposition) {
    MetricsRegistry registry;
    registry.counter("fleet", "boots", "Total boots").inc(7);
    registry.gauge("transport", "coverage", "phone", "p-0").set(0.25);
    registry.histogram("t", "lat", {1.0}, "Latency").observe(0.5);
    const std::string text = registry.renderPrometheus();

    EXPECT_NE(text.find("# HELP symfail_fleet_boots Total boots"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE symfail_fleet_boots counter"), std::string::npos);
    EXPECT_NE(text.find("symfail_fleet_boots 7"), std::string::npos);
    EXPECT_NE(text.find("symfail_transport_coverage{phone=\"p-0\"} 0.25"),
              std::string::npos);
    EXPECT_NE(text.find("symfail_t_lat_bucket{le=\"1\"} 1"), std::string::npos);
    EXPECT_NE(text.find("symfail_t_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
    EXPECT_NE(text.find("symfail_t_lat_sum"), std::string::npos);
    EXPECT_NE(text.find("symfail_t_lat_count 1"), std::string::npos);
    // Exposition must end with a newline.
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
}

TEST(Metrics, JsonAndCsvRender) {
    MetricsRegistry registry;
    registry.counter("a", "events").inc(3);
    const std::string json = registry.renderJson();
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"a.events\""), std::string::npos);
    const std::string csv = registry.renderCsv();
    EXPECT_NE(csv.find("a.events"), std::string::npos);
}

// --------------------------------------------------------------- quantiles

TEST(Metrics, QuantileOfEmptyHistogramIsZero) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "empty", {1.0, 2.0});
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Metrics, QuantileInterpolatesWithinBucket) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "lat", {10.0, 20.0, 30.0});
    // 10 samples in (10, 20]: p50 lands mid-bucket, Prometheus style.
    h.observe(15.0, 10);
    EXPECT_NEAR(h.quantile(0.5), 15.0, 1e-9);
    EXPECT_NEAR(h.quantile(1.0), 20.0, 1e-9);
    // q=0 lands in the empty first bucket, whose lower edge is 0.
    EXPECT_NEAR(h.quantile(0.0), 0.0, 1e-9);
}

TEST(Metrics, QuantileWithSingleBucketUsesMean) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "one", std::vector<double>{});
    h.observe(4.0);
    h.observe(8.0);
    // Only the +Inf bucket exists; the mean is the best point estimate.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 6.0);
}

TEST(Metrics, QuantileInOverflowClampsToLargestBound) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "inf", {1.0, 2.0});
    h.observe(100.0, 9);  // all mass in +Inf
    h.observe(0.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(Metrics, QuantileClampsOutOfRangeQ) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "clamp", {10.0});
    h.observe(5.0, 4);
    EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Metrics, SnapshotAndRendersCarryQuantiles) {
    MetricsRegistry registry;
    auto& h = registry.histogram("t", "lat", {10.0, 20.0}, "Latency");
    h.observe(15.0, 10);
    const auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_NEAR(samples[0].p50, 15.0, 1e-9);
    EXPECT_GT(samples[0].p99, samples[0].p50);

    const auto prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("symfail_t_lat_quantile{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("symfail_t_lat_quantile{quantile=\"0.95\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("symfail_t_lat_quantile{quantile=\"0.99\"}"),
              std::string::npos);
    const auto json = registry.renderJson();
    EXPECT_NE(json.find("\"quantiles\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// ------------------------------------------------------------------ trace

TEST(Trace, JsonEscaping) {
    std::string out;
    appendJsonEscaped(out, "a\"b\\c\nd\te\x01");
    EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001");
}

TEST(Trace, JsonNumbersAndStrings) {
    EXPECT_EQ(jsonNum(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(jsonNum(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(jsonNum(-std::numeric_limits<double>::infinity(), 10), "null");
    EXPECT_EQ(jsonNum(2.0 / 3.0), "0.666667");
    EXPECT_EQ(jsonNum(2.0 / 3.0, 10), "0.6666666667");
    EXPECT_EQ(jsonString("say \"hi\""), "\"say \\\"hi\\\"\"");
}

TEST(Trace, ChromeWriterProducesTraceEventsDocument) {
    ChromeTraceWriter writer;
    const auto track = writer.registerTrack("phone-0");
    const TraceArg args[] = {{"panic", "KERN-EXEC 3"}, {"boot", 2}};
    writer.instant(track, "symbos", "panic", sim::TimePoint::fromMicros(1500),
                   args);
    writer.span(track, "phone", "powered-on", sim::TimePoint::fromMicros(0),
                sim::Duration::seconds(1));
    writer.counter(track, "battery", sim::TimePoint::fromMicros(2000), 88.0);

    const std::string json = writer.json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Thread-name metadata for the registered tracks ("sim" + "phone-0").
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("phone-0"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"panic\":\"KERN-EXEC 3\""), std::string::npos);
    EXPECT_NE(json.find("\"boot\":2"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1500"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1000000"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":88}"), std::string::npos);
    EXPECT_EQ(writer.eventCount(), 3u);
    EXPECT_EQ(writer.droppedEvents(), 0u);

    // A counter that is not a number writes null: no JSON parser reads nan.
    writer.counter(track, "battery", sim::TimePoint::fromMicros(3000),
                   std::numeric_limits<double>::quiet_NaN());
    EXPECT_NE(writer.json().find("\"args\":{\"value\":null}"), std::string::npos);
}

TEST(Trace, HostileArgPayloadsAreEscaped) {
    ChromeTraceWriter writer;
    const auto track = writer.registerTrack("pho\"ne\\0");
    // Record payloads can carry quotes, backslashes and control bytes
    // (e.g. a crash-dump frame name); the exporter must keep the
    // document valid whatever arrives.
    const std::string hostile = "a\"b\\c\x01\x1f\n\r\t";
    const TraceArg args[] = {{"payload", hostile}, {"panic\"key", 1}};
    writer.instant(track, "cat\\egory", hostile, sim::TimePoint::fromMicros(1),
                   args);
    writer.flowBegin(track, "provenance", hostile,
                     sim::TimePoint::fromMicros(2), 9, args);

    const std::string json = writer.json();
    // No raw control bytes survive inside strings (the document's own
    // inter-event newlines are the only ones allowed).
    for (const char c : json) {
        if (c == '\n') continue;
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    }
    EXPECT_NE(json.find("a\\\"b\\\\c\\u0001\\u001f\\n\\r\\t"),
              std::string::npos);
    EXPECT_NE(json.find("panic\\\"key"), std::string::npos);
    EXPECT_NE(json.find("pho\\\"ne\\\\0"), std::string::npos);
}

TEST(Trace, FlowEventsRenderChromePhases) {
    ChromeTraceWriter writer;
    const auto phone = writer.registerTrack("phone-0");
    const auto server = writer.registerTrack("server");
    const TraceArg args[] = {{"record", "phone-0#3"}};
    writer.flowBegin(phone, "provenance", "record-flow",
                     sim::TimePoint::fromMicros(100), 42, args);
    writer.flowStep(phone, "provenance", "record-flow",
                    sim::TimePoint::fromMicros(200), 42);
    writer.flowEnd(server, "provenance", "record-flow",
                   sim::TimePoint::fromMicros(300), 42);

    const std::string json = writer.json();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    // Chrome requires binding-point "enclosing slice" on the flow end.
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    // All three points bind through the same (cat, name, id) triple.
    EXPECT_NE(json.find("\"id\":42"), std::string::npos);
    EXPECT_NE(json.find("\"record\":\"phone-0#3\""), std::string::npos);
    EXPECT_EQ(writer.eventCount(), 3u);
}

TEST(Trace, EventCapCountsDrops) {
    ChromeTraceWriter writer{ChromeTraceWriter::Options{.maxEvents = 2}};
    for (int i = 0; i < 5; ++i) {
        writer.instant(0, "c", "e", sim::TimePoint::fromMicros(i));
    }
    EXPECT_EQ(writer.eventCount(), 2u);
    EXPECT_EQ(writer.droppedEvents(), 3u);
    EXPECT_NE(writer.json().find("dropped"), std::string::npos);
}

TEST(Trace, SimulatorEmitsDispatchInstants) {
    ChromeTraceWriter writer;
    sim::Simulator simulator;
    simulator.setTraceSink(&writer);
    simulator.scheduleAfter(sim::Duration::seconds(1), "test.cat", []() {});
    simulator.scheduleAt(sim::TimePoint::origin() + sim::Duration::seconds(2), []() {});
    simulator.runAll();
    const std::string json = writer.json();
    EXPECT_NE(json.find("\"test.cat\""), std::string::npos);
    EXPECT_NE(json.find("\"uncategorized\""), std::string::npos);
}

// --------------------------------------------------------------- profiler

TEST(Profiler, AggregatesPerCategory) {
    CampaignProfiler profiler;
    profiler.noteEvent("transport", 0.002, 5);
    profiler.noteEvent("transport", 0.003, 9);
    profiler.noteEvent("phone", 0.001, 2);
    profiler.noteEvent(nullptr, 0.004, 1);

    EXPECT_EQ(profiler.eventsDispatched(), 4u);
    EXPECT_NEAR(profiler.hostSecondsTotal(), 0.010, 1e-12);
    EXPECT_EQ(profiler.queueDepthWatermark(), 9u);

    const auto profile = profiler.byCategory();
    ASSERT_EQ(profile.size(), 3u);
    // Most expensive first.
    EXPECT_EQ(profile[0].category, "transport");
    EXPECT_EQ(profile[0].events, 2u);
    EXPECT_EQ(profile[1].category, "uncategorized");

    const std::string report = profiler.renderReport();
    EXPECT_NE(report.find("transport"), std::string::npos);
    EXPECT_NE(report.find("uncategorized"), std::string::npos);

    MetricsRegistry registry;
    profiler.publish(registry);
    EXPECT_EQ(registry.counter("profiler", "events_dispatched").value(), 4u);
}

TEST(Profiler, CountsEverySimulatorDispatch) {
    CampaignProfiler profiler;
    sim::Simulator simulator;
    simulator.setProfiler(&profiler);
    for (int i = 0; i < 10; ++i) {
        simulator.scheduleAfter(sim::Duration::seconds(i + 1), "tick", []() {});
    }
    simulator.runAll();
    EXPECT_EQ(profiler.eventsDispatched(), simulator.eventsFired());
    EXPECT_EQ(profiler.eventsDispatched(), 10u);
}

// ------------------------------------------------- campaign determinism

fleet::FleetConfig tinyCampaign() {
    fleet::FleetConfig config;
    config.phoneCount = 3;
    config.campaign = sim::Duration::days(8);
    config.enrollmentWindow = sim::Duration::days(2);
    config.seed = 99;
    config.freezesPerHour *= 10.0;
    config.selfShutdownsPerHour *= 10.0;
    config.panicsPerHour *= 10.0;
    return config;
}

TEST(ObsCampaign, TracingTwiceIsByteIdentical) {
    auto config = tinyCampaign();

    ChromeTraceWriter first;
    config.obs.trace = &first;
    (void)fleet::runCampaign(config);

    ChromeTraceWriter second;
    config.obs.trace = &second;
    (void)fleet::runCampaign(config);

    ASSERT_GT(first.eventCount(), 0u);
    EXPECT_EQ(first.json(), second.json());
}

TEST(ObsCampaign, MetricsTwiceAreByteIdentical) {
    auto config = tinyCampaign();

    MetricsRegistry first;
    config.obs.metrics = &first;
    (void)fleet::runCampaign(config);

    MetricsRegistry second;
    config.obs.metrics = &second;
    (void)fleet::runCampaign(config);

    ASSERT_GT(first.size(), 0u);
    EXPECT_EQ(first.renderPrometheus(), second.renderPrometheus());
    EXPECT_EQ(first.renderJson(), second.renderJson());
    EXPECT_EQ(first.renderCsv(), second.renderCsv());
}

/// The heart of the zero-perturbation contract: a fully instrumented
/// campaign (trace + metrics + profiler) produces exactly the logs and
/// ground truth of an uninstrumented one.
TEST(ObsCampaign, InstrumentationDoesNotPerturbCampaign) {
    auto plain = tinyCampaign();
    const auto bare = fleet::runCampaign(plain);

    auto instrumented = tinyCampaign();
    ChromeTraceWriter trace;
    MetricsRegistry metrics;
    CampaignProfiler profiler;
    instrumented.obs.trace = &trace;
    instrumented.obs.metrics = &metrics;
    instrumented.obs.profiler = &profiler;
    const auto traced = fleet::runCampaign(instrumented);

    ASSERT_EQ(bare.logs.size(), traced.logs.size());
    for (std::size_t i = 0; i < bare.logs.size(); ++i) {
        EXPECT_EQ(bare.logs[i].logFileContent, traced.logs[i].logFileContent);
    }
    EXPECT_EQ(bare.totalBoots, traced.totalBoots);
    EXPECT_EQ(bare.panicsInjected, traced.panicsInjected);
    EXPECT_EQ(bare.simulatorEvents, traced.simulatorEvents);
    EXPECT_EQ(bare.transport.recordsDelivered, traced.transport.recordsDelivered);
    EXPECT_EQ(profiler.eventsDispatched(), traced.simulatorEvents);
    // The campaign publishes the profile into its registry.
    EXPECT_EQ(metrics.counter("profiler", "events_dispatched").value(),
              traced.simulatorEvents);
}

TEST(ObsCampaign, MetricsMatchCampaignTotals) {
    auto config = tinyCampaign();
    MetricsRegistry metrics;
    config.obs.metrics = &metrics;
    const auto result = fleet::runCampaign(config);

    EXPECT_EQ(metrics.counter("fleet", "boots").value(), result.totalBoots);
    EXPECT_EQ(metrics.counter("sim", "events_dispatched").value(),
              result.simulatorEvents);
    EXPECT_EQ(metrics.counter("transport", "records_delivered").value(),
              result.transport.recordsDelivered);
}

// ------------------------------------------------------------- accountant

TEST(Accountant, LedgerTracksCurrentPeakAndSamples) {
    ResourceAccountant accountant;
    accountant.record("phone", 100);
    accountant.record("server", 50);
    EXPECT_EQ(accountant.totalBytes(), 150u);
    EXPECT_EQ(accountant.peakTotalBytes(), 150u);
    // A shrinking account lowers the total but not the peaks.
    accountant.record("phone", 40);
    EXPECT_EQ(accountant.totalBytes(), 90u);
    EXPECT_EQ(accountant.peakTotalBytes(), 150u);
    EXPECT_EQ(accountant.samplesTaken(), 3u);

    const auto accounts = accountant.accounts();
    ASSERT_EQ(accounts.size(), 2u);  // sorted by name
    EXPECT_EQ(accounts[0].subsystem, "phone");
    EXPECT_EQ(accounts[0].currentBytes, 40u);
    EXPECT_EQ(accounts[0].peakBytes, 100u);
    EXPECT_EQ(accounts[0].samples, 2u);
    EXPECT_EQ(accounts[1].subsystem, "server");
}

TEST(Accountant, RssProbesAreSaneOnThisPlatform) {
    // VmHWM comes from /proc/self/status; on platforms without it the
    // probe reads 0.  Where present, a running process has a peak.
    const std::uint64_t peak = readPeakRssBytes();
    if (std::ifstream{"/proc/self/status"}) {
        EXPECT_GT(peak, 0u);
    } else {
        EXPECT_EQ(peak, 0u);
    }
}

/// The accounting analogue of InstrumentationDoesNotPerturbCampaign: the
/// sweep schedules real (read-only) events, so the event *count* may
/// differ, but every campaign table must stay bit-identical.
TEST(ObsCampaign, AccountingDoesNotPerturbCampaign) {
    auto plain = tinyCampaign();
    const auto bare = fleet::runCampaign(plain);

    auto accounted = tinyCampaign();
    ResourceAccountant accountant;
    accounted.obs.accountant = &accountant;
    accounted.obs.accountingInterval = sim::Duration::hours(12);
    const auto swept = fleet::runCampaign(accounted);

    ASSERT_EQ(bare.logs.size(), swept.logs.size());
    for (std::size_t i = 0; i < bare.logs.size(); ++i) {
        EXPECT_EQ(bare.logs[i].logFileContent, swept.logs[i].logFileContent);
    }
    EXPECT_EQ(bare.totalBoots, swept.totalBoots);
    EXPECT_EQ(bare.panicsInjected, swept.panicsInjected);
    EXPECT_EQ(bare.hangsInjected, swept.hangsInjected);
    EXPECT_EQ(bare.transport.recordsDelivered, swept.transport.recordsDelivered);
    ASSERT_EQ(bare.collectedLogs.size(), swept.collectedLogs.size());
    for (std::size_t i = 0; i < bare.collectedLogs.size(); ++i) {
        EXPECT_EQ(bare.collectedLogs[i].logFileContent,
                  swept.collectedLogs[i].logFileContent);
    }

    // The sweep actually ran and saw every expected subsystem.
    EXPECT_GT(accountant.samplesTaken(), 0u);
    EXPECT_GT(accountant.totalBytes(), 0u);
    const auto accounts = accountant.accounts();
    for (const char* subsystem :
         {"logger", "phone", "server", "simkernel", "transport"}) {
        bool found = false;
        for (const auto& account : accounts) {
            if (account.subsystem == subsystem) {
                found = account.peakBytes > 0;
                break;
            }
        }
        EXPECT_TRUE(found) << subsystem;
    }
}

/// The ledger derives from simulated state only, so two identical
/// campaigns account identically — byte for byte.
TEST(ObsCampaign, AccountingLedgerIsByteIdenticalAcrossRuns) {
    std::vector<ResourceAccountant::Account> ledgers[2];
    std::uint64_t peaks[2] = {0, 0};
    for (int run = 0; run < 2; ++run) {
        auto config = tinyCampaign();
        ResourceAccountant accountant;
        config.obs.accountant = &accountant;
        config.obs.accountingInterval = sim::Duration::hours(12);
        (void)fleet::runCampaign(config);
        ledgers[run] = accountant.accounts();
        peaks[run] = accountant.peakTotalBytes();
    }
    ASSERT_FALSE(ledgers[0].empty());
    EXPECT_EQ(ledgers[0], ledgers[1]);
    EXPECT_EQ(peaks[0], peaks[1]);
}

// ------------------------------------------------------ stride sampling

TEST(Profiler, StrideSamplingKeepsCountsExact) {
    CampaignProfiler profiler;
    profiler.setSamplingStride(4);
    sim::Simulator simulator;
    simulator.setProfiler(&profiler);
    constexpr int kEvents = 20;
    for (int i = 0; i < kEvents; ++i) {
        simulator.scheduleAfter(sim::Duration::seconds(i + 1), "tick", []() {});
    }
    simulator.runAll();
    EXPECT_EQ(profiler.eventsDispatched(), static_cast<std::uint64_t>(kEvents));
    EXPECT_EQ(profiler.eventsSampled(), static_cast<std::uint64_t>(kEvents / 4));
    // The estimate scales the timed cost by the stride.
    EXPECT_DOUBLE_EQ(profiler.hostSecondsTotal(),
                     profiler.hostSecondsSampled() * 4.0);
    const auto profile = profiler.byCategory();
    ASSERT_EQ(profile.size(), 1u);
    EXPECT_EQ(profile[0].events, static_cast<std::uint64_t>(kEvents));
}

TEST(Profiler, PhasesAreTimedExactly) {
    CampaignProfiler profiler;
    profiler.setSamplingStride(64);  // phases must ignore the stride
    profiler.notePhase("simulate", 1.5);
    profiler.notePhase("analysis", 0.5);
    profiler.notePhase("simulate", 0.25);
    const auto phases = profiler.byPhase();
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].phase, "simulate");  // most expensive first
    EXPECT_DOUBLE_EQ(phases[0].hostSeconds, 1.75);
    EXPECT_EQ(phases[1].phase, "analysis");
    { ScopedPhase bracket{&profiler, "scoped"}; }
    EXPECT_EQ(profiler.byPhase().size(), 3u);
    const std::string report = profiler.renderReport();
    EXPECT_NE(report.find("simulate"), std::string::npos);
}

// ------------------------------------------------- exposition audit

/// Every metric family any subsystem publishes must carry # HELP and
/// # TYPE in the Prometheus exposition — scrapers and dashboards key off
/// them.  Runs a fully instrumented campaign, publishes every obs-layer
/// artifact, and audits the rendered document line by line.
TEST(Metrics, EveryPublishedFamilyHasHelpAndType) {
    auto config = tinyCampaign();
    MetricsRegistry registry;
    CampaignProfiler profiler;
    ResourceAccountant accountant;
    ProvenanceTracker provenance;
    config.obs.metrics = &registry;
    config.obs.profiler = &profiler;
    config.obs.accountant = &accountant;
    config.obs.provenance = &provenance;
    (void)fleet::runCampaign(config);

    std::set<std::string> helped;
    std::set<std::string> typed;
    std::vector<std::string> sampleFamilies;
    const std::string text = registry.renderPrometheus();
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos) end = text.size();
        const std::string line = text.substr(start, end - start);
        start = end + 1;
        if (line.empty()) continue;
        if (line.rfind("# HELP ", 0) == 0) {
            const std::string rest = line.substr(7);
            const std::size_t space = rest.find(' ');
            ASSERT_NE(space, std::string::npos) << "HELP without text: " << line;
            EXPECT_LT(space + 1, rest.size()) << "empty HELP text: " << line;
            helped.insert(rest.substr(0, space));
        } else if (line.rfind("# TYPE ", 0) == 0) {
            const std::string rest = line.substr(7);
            typed.insert(rest.substr(0, rest.find(' ')));
        } else {
            sampleFamilies.push_back(
                line.substr(0, line.find_first_of("{ ")));
        }
    }
    ASSERT_FALSE(sampleFamilies.empty());
    const auto baseFamily = [](const std::string& family) {
        for (const char* suffix : {"_bucket", "_sum", "_count"}) {
            const std::string s{suffix};
            if (family.size() > s.size() &&
                family.compare(family.size() - s.size(), s.size(), s) == 0) {
                return family.substr(0, family.size() - s.size());
            }
        }
        return family;
    };
    for (const std::string& family : sampleFamilies) {
        const std::string base = baseFamily(family);
        EXPECT_TRUE(helped.count(family) != 0 || helped.count(base) != 0)
            << "family without # HELP: " << family;
        EXPECT_TRUE(typed.count(family) != 0 || typed.count(base) != 0)
            << "family without # TYPE: " << family;
    }
    // The _quantile auxiliary families are gauges with their own HELP.
    bool sawQuantile = false;
    for (const std::string& family : sampleFamilies) {
        if (family.size() > 9 &&
            family.compare(family.size() - 9, 9, "_quantile") == 0) {
            sawQuantile = true;
            EXPECT_TRUE(helped.count(family) != 0)
                << "quantile family without # HELP: " << family;
        }
    }
    EXPECT_TRUE(sawQuantile);  // provenance publishes latency histograms
}

TEST(Metrics, HelpBackfillsFromLaterRegistration) {
    MetricsRegistry registry;
    registry.counter("fleet", "boots").inc(1);  // first registration: no help
    registry.counter("fleet", "boots", "Total boots").inc(1);
    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("# HELP symfail_fleet_boots Total boots"),
              std::string::npos);
}

}  // namespace
}  // namespace symfail::obs
