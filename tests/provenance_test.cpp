// Tests for the end-to-end failure provenance tracker: the conservation
// invariant under every loss mode, non-perturbation of the campaign, and
// the lineage/flow/report surfaces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "obs/metrics.hpp"

namespace symfail::obs {
namespace {

/// A small, failure-dense campaign that still exercises chunked uploads.
fleet::FleetConfig smallCampaign(std::uint64_t seed) {
    fleet::FleetConfig config;
    config.phoneCount = 3;
    config.campaign = sim::Duration::days(25);
    config.enrollmentWindow = sim::Duration::days(6);
    config.seed = seed;
    config.freezesPerHour *= 8.0;
    config.selfShutdownsPerHour *= 8.0;
    config.panicsPerHour *= 8.0;
    return config;
}

/// Every lineage the tracker holds for `phone`, in id order.
std::vector<const RecordLineage*> lineages(const ProvenanceTracker& tracker,
                                           const std::string& phone) {
    std::vector<const RecordLineage*> out;
    for (std::uint64_t id = 0; const RecordLineage* rec = tracker.find(phone, id); ++id) {
        out.push_back(rec);
    }
    return out;
}

struct ChannelScenario {
    const char* name;
    double loss;
    double dup;
    double reorder;
    bool retries;
    bool outage;
};

// The conservation invariant is the module's reason to exist: every
// created record must land in exactly one terminal bucket, whatever the
// channel does to its segments.
TEST(ProvenanceConservation, HoldsAcrossLossDupReorderAndOutageSweeps) {
    const ChannelScenario scenarios[] = {
        {"clean", 0.0, 0.0, 0.0, true, false},
        {"lossy", 0.30, 0.0, 0.0, true, false},
        {"dup-reorder", 0.20, 0.15, 0.20, true, false},
        {"no-retries", 0.30, 0.10, 0.10, false, false},
        {"outage", 0.10, 0.0, 0.0, true, true},
        {"outage-no-retries", 0.30, 0.10, 0.10, false, true},
    };
    for (const auto& scenario : scenarios) {
        SCOPED_TRACE(scenario.name);
        auto config = smallCampaign(11);
        config.transport.dataChannel.lossProb = scenario.loss;
        config.transport.dataChannel.dupProb = scenario.dup;
        config.transport.dataChannel.reorderProb = scenario.reorder;
        config.transport.ackChannel.lossProb = scenario.loss;
        config.transport.policy.retriesEnabled = scenario.retries;
        if (scenario.outage) {
            const auto start = sim::TimePoint::origin() + sim::Duration::days(10);
            const transport::OutageWindow window{start,
                                                 start + sim::Duration::days(5)};
            config.transport.dataChannel.outages.push_back(window);
            config.transport.ackChannel.outages.push_back(window);
        }

        ProvenanceTracker tracker;
        config.obs.provenance = &tracker;
        (void)fleet::runCampaign(config);

        ASSERT_TRUE(tracker.finalized());
        const auto summary = tracker.summary();
        EXPECT_GT(summary.created, 0u);
        EXPECT_TRUE(summary.conserved())
            << summary.created << " != " << summary.delivered << " + "
            << summary.torn << " + " << summary.lostWire << " + "
            << summary.lostOutage << " + " << summary.pending;

        // The per-phone lineages must add up to the fleet totals.
        std::uint64_t perPhone = 0;
        for (const auto& phone : tracker.phoneNames()) {
            perPhone += lineages(tracker, phone).size();
        }
        EXPECT_EQ(perPhone, summary.created);
    }
}

// Attaching the tracker must not perturb the campaign: collected logs,
// phone logs and transport accounting are bit-identical with provenance
// on or off.  The analysis tables are pure functions of the logs, so this
// also pins Tables 2-4 and the MTBF numbers.
TEST(ProvenanceNonPerturbation, CampaignBitIdenticalOnOrOff) {
    auto config = smallCampaign(23);
    config.transport.dataChannel.lossProb = 0.25;
    config.transport.ackChannel.lossProb = 0.25;

    const auto plain = fleet::runCampaign(config);

    ProvenanceTracker tracker;
    ChromeTraceWriter trace;
    config.obs.provenance = &tracker;
    config.obs.trace = &trace;
    const auto traced = fleet::runCampaign(config);

    ASSERT_EQ(plain.logs.size(), traced.logs.size());
    for (std::size_t i = 0; i < plain.logs.size(); ++i) {
        EXPECT_EQ(plain.logs[i].logFileContent, traced.logs[i].logFileContent);
    }
    ASSERT_EQ(plain.collectedLogs.size(), traced.collectedLogs.size());
    for (std::size_t i = 0; i < plain.collectedLogs.size(); ++i) {
        EXPECT_EQ(plain.collectedLogs[i].logFileContent,
                  traced.collectedLogs[i].logFileContent);
    }
    EXPECT_EQ(plain.transport.framesSent, traced.transport.framesSent);
    EXPECT_EQ(plain.transport.framesDelivered, traced.transport.framesDelivered);
    EXPECT_EQ(plain.panicsInjected, traced.panicsInjected);
    EXPECT_EQ(plain.totalBoots, traced.totalBoots);
}

// Stage timestamps of a delivered record must be causally ordered.
TEST(ProvenanceLineage, DeliveredStampsAreOrdered) {
    auto config = smallCampaign(7);
    ProvenanceTracker tracker;
    config.obs.provenance = &tracker;
    (void)fleet::runCampaign(config);

    std::size_t checked = 0;
    for (const auto& phone : tracker.phoneNames()) {
        for (const RecordLineage* rec : lineages(tracker, phone)) {
            if (rec->outcome != RecordOutcome::Delivered) continue;
            ASSERT_TRUE(rec->enqueued.has_value());
            ASSERT_TRUE(rec->uploaded.has_value());
            ASSERT_TRUE(rec->delivered.has_value());
            ASSERT_TRUE(rec->reconciled.has_value());
            EXPECT_LE(rec->created.micros(), rec->enqueued->micros());
            EXPECT_LE(rec->enqueued->micros(), rec->uploaded->micros());
            EXPECT_LE(rec->uploaded->micros(), rec->delivered->micros());
            EXPECT_LE(rec->delivered->micros(), rec->reconciled->micros());
            EXPECT_GE(rec->sendCount, 1u);
            ++checked;
        }
    }
    EXPECT_GT(checked, 10u);
}

// Flash-plane tears cut records out of the Log File; `undelivered` must
// still list them, together with every record still in the log that
// missed delivery.
TEST(ProvenanceLineage, UndeliveredIncludesTornRecords) {
    auto config = smallCampaign(12);
    config.osfault.flash.faultsPerKHour = 200.0;
    ProvenanceTracker tracker;
    config.obs.provenance = &tracker;
    (void)fleet::runCampaign(config);

    const auto summary = tracker.summary();
    ASSERT_GT(summary.torn, 0u);
    std::uint64_t listed = 0;
    std::uint64_t tornListed = 0;
    for (const auto& phone : tracker.phoneNames()) {
        std::vector<std::uint64_t> expected;
        for (const RecordLineage* rec : lineages(tracker, phone)) {
            if (rec->outcome != RecordOutcome::Delivered) expected.push_back(rec->id);
        }
        std::vector<std::uint64_t> ids;
        for (const RecordLineage* rec : tracker.undelivered(phone)) {
            ids.push_back(rec->id);
            if (rec->outcome == RecordOutcome::Torn) ++tornListed;
        }
        EXPECT_EQ(ids, expected) << phone;
        listed += ids.size();
    }
    EXPECT_EQ(listed, summary.created - summary.delivered);
    EXPECT_EQ(tornListed, summary.torn);
    EXPECT_TRUE(tracker.undelivered("no-such-phone").empty());
}

// ----- unit-level hook tests (no campaign) ----------------------------

sim::TimePoint at(long long seconds) {
    return sim::TimePoint::fromMicros(seconds * 1'000'000);
}

TEST(ProvenanceUnit, TearResolvesRecordsAsTorn) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "BOOT", at(1));
    tracker.recordCreated("p", 10, 10, "PANIC", at(2));
    tracker.recordCreated("p", 20, 10, "HEARTBEAT", at(3));
    // Tear to 15 bytes: record #1 is truncated mid-line, #2 destroyed.
    tracker.tailTorn("p", 15, at(4));
    tracker.finalize(at(5));

    const auto summary = tracker.summary();
    EXPECT_EQ(summary.created, 3u);
    EXPECT_EQ(summary.torn, 2u);
    EXPECT_TRUE(summary.conserved());
    const auto* straddler = tracker.find("p", 1);
    ASSERT_NE(straddler, nullptr);
    EXPECT_EQ(straddler->outcome, RecordOutcome::Torn);
    EXPECT_TRUE(straddler->tornAtSource);
    const auto* intact = tracker.find("p", 0);
    ASSERT_NE(intact, nullptr);
    EXPECT_EQ(intact->outcome, RecordOutcome::Pending);
}

TEST(ProvenanceUnit, DuplicateCopiesAreNotAnOutcomeBucket) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "PANIC", at(1));
    tracker.snapshotEnqueued("p", 10, at(2));
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    tracker.frameDelivered("p", 0, 10, at(4));
    tracker.frameDelivered("p", 0, 10, at(4));
    tracker.segmentReconciled("p", 0, 10, false, at(5));
    tracker.segmentReconciled("p", 0, 10, true, at(5));
    tracker.monitorConsumed("p", 10, at(6));
    tracker.finalize(at(7));

    const auto summary = tracker.summary();
    EXPECT_EQ(summary.created, 1u);
    EXPECT_EQ(summary.delivered, 1u);
    EXPECT_EQ(summary.duplicateCopiesDropped, 1u);
    EXPECT_TRUE(summary.conserved());
    const auto* rec = tracker.find("p", 0);
    ASSERT_NE(rec, nullptr);
    ASSERT_TRUE(rec->alerted.has_value());
    EXPECT_EQ(rec->alerted->micros(), at(6).micros());
}

TEST(ProvenanceUnit, OutageLossOutranksWireLoss) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "PANIC", at(1));
    tracker.recordCreated("p", 10, 10, "PANIC", at(1));
    tracker.snapshotEnqueued("p", 20, at(2));
    // Segment 0 lost to the wire only; segment 1 also swallowed by an
    // outage window — the outage classification wins.
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    tracker.frameLost("p", 0, false, at(3));
    tracker.segmentSent("p", 1, 10, 10, false, at(4));
    tracker.frameLost("p", 1, false, at(4));
    tracker.frameLost("p", 1, true, at(5));
    tracker.finalize(at(6));

    EXPECT_EQ(tracker.find("p", 0)->outcome, RecordOutcome::LostWire);
    EXPECT_EQ(tracker.find("p", 1)->outcome, RecordOutcome::LostOutage);
    const auto summary = tracker.summary();
    EXPECT_EQ(summary.lostWire, 1u);
    EXPECT_EQ(summary.lostOutage, 1u);
    EXPECT_TRUE(summary.conserved());
}

TEST(ProvenanceUnit, NeverUploadedStaysPending) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "BOOT", at(1));
    tracker.finalize(at(2));
    EXPECT_EQ(tracker.find("p", 0)->outcome, RecordOutcome::Pending);
    EXPECT_TRUE(tracker.summary().conserved());
}

TEST(ProvenanceUnit, HooksAfterFinalizeAreIgnored) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "BOOT", at(1));
    tracker.finalize(at(2));
    tracker.recordCreated("p", 10, 10, "PANIC", at(3));
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    EXPECT_EQ(tracker.summary().created, 1u);
}

TEST(ProvenanceUnit, RotationFreezesLineage) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "BOOT", at(1));
    tracker.prefixRotated("p", 5, at(2));
    tracker.recordCreated("p", 5, 10, "PANIC", at(3));  // post-rotation: ignored
    tracker.finalize(at(4));
    const auto summary = tracker.summary();
    EXPECT_EQ(summary.created, 1u);
    EXPECT_TRUE(summary.conserved());
}

// ----- reporting surfaces ---------------------------------------------

TEST(ProvenanceReport, ExplainTellsTheStory) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "PANIC", at(1));
    tracker.snapshotEnqueued("p", 10, at(2));
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    tracker.frameLost("p", 0, true, at(4));
    tracker.finalize(at(5));

    const auto story = tracker.explain("p", 0);
    EXPECT_NE(story.find("p#0"), std::string::npos);
    EXPECT_NE(story.find("PANIC"), std::string::npos);
    EXPECT_NE(story.find("lost-outage"), std::string::npos);
    EXPECT_NE(story.find("out of coverage"), std::string::npos);

    EXPECT_NE(tracker.explain("p", 99).find("unknown"), std::string::npos);
}

TEST(ProvenanceReport, RenderReportStatesConservation) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "BOOT", at(1));
    tracker.finalize(at(2));
    const auto report = tracker.renderReport();
    EXPECT_NE(report.find("conservation OK"), std::string::npos);
    EXPECT_NE(report.find("records created"), std::string::npos);
}

TEST(ProvenanceReport, JsonCarriesSummaryAndUndelivered) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "PANIC", at(1));
    tracker.snapshotEnqueued("p", 10, at(2));
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    tracker.frameLost("p", 0, false, at(4));
    tracker.finalize(at(5));

    const auto json = tracker.renderJson();
    EXPECT_NE(json.find("\"conserved\":true"), std::string::npos);
    EXPECT_NE(json.find("\"p#0\""), std::string::npos);
    EXPECT_NE(json.find("lost-wire"), std::string::npos);
}

TEST(ProvenanceReport, PublishMetricsExposesOutcomesAndLatencies) {
    ProvenanceTracker tracker;
    tracker.recordCreated("p", 0, 10, "PANIC", at(1));
    tracker.snapshotEnqueued("p", 10, at(2));
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    tracker.frameDelivered("p", 0, 10, at(4));
    tracker.segmentReconciled("p", 0, 10, false, at(5));
    tracker.finalize(at(6));

    MetricsRegistry registry;
    tracker.publishMetrics(registry);
    const auto prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("provenance_records_created"), std::string::npos);
    EXPECT_NE(prom.find("outcome=\"delivered\""), std::string::npos);
    EXPECT_NE(prom.find("provenance_latency_end_to_end_seconds"),
              std::string::npos);
    EXPECT_NE(prom.find("provenance_conservation_ok"), std::string::npos);
}

// Flow chains: one s/t/f arrow sequence per flowed record, bound by the
// shared (category, name, id) triple Perfetto joins on.
TEST(ProvenanceFlows, EmitChromeFlowChain) {
    ChromeTraceWriter trace;
    ProvenanceTracker tracker;
    tracker.attachTrace(&trace);
    tracker.setFlowAllRecords(true);
    tracker.recordCreated("p", 0, 10, "BOOT", at(1));
    tracker.snapshotEnqueued("p", 10, at(2));
    tracker.segmentSent("p", 0, 0, 10, false, at(3));
    tracker.frameDelivered("p", 0, 10, at(4));
    tracker.segmentReconciled("p", 0, 10, false, at(5));
    tracker.monitorConsumed("p", 10, at(6));
    tracker.finalize(at(7));

    const auto json = trace.json();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("record-flow"), std::string::npos);
    EXPECT_NE(json.find("collection-server"), std::string::npos);
    EXPECT_NE(json.find("monitor"), std::string::npos);
}

TEST(ProvenanceIdentity, CanonicalIdAndFlowIdAreDeterministic) {
    EXPECT_EQ(provenanceId("phone-3", 17), "phone-3#17");
    EXPECT_EQ(provenanceFlowId("phone-3", 17), provenanceFlowId("phone-3", 17));
    EXPECT_NE(provenanceFlowId("phone-3", 17), provenanceFlowId("phone-3", 18));
    EXPECT_NE(provenanceFlowId("phone-3", 17), provenanceFlowId("phone-4", 17));
}

}  // namespace
}  // namespace symfail::obs
