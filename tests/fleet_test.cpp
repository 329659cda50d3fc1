// Tests for the fleet campaign driver and the collection server's
// reassembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "logger/records.hpp"
#include "transport/frame.hpp"
#include "transport/reassembly.hpp"

namespace symfail::fleet {
namespace {

/// A parseable Log File with `boots` boot records.
std::string logWithBoots(int boots) {
    std::string content;
    content += logger::serialize(
                   logger::MetaRecord{sim::TimePoint::fromMicros(0), "8.0"}) +
               "\n";
    for (int i = 0; i < boots; ++i) {
        logger::BootRecord boot;
        boot.time = sim::TimePoint::fromMicros((i + 1) * 1'000'000);
        boot.prior = logger::PriorShutdown::Reboot;
        boot.lastBeatAt = sim::TimePoint::fromMicros((i + 1) * 1'000'000 - 100);
        content += logger::serialize(boot) + "\n";
    }
    return content;
}

TEST(FleetPlan, ExpectedHoursUnderStaggeredEnrollment) {
    FleetConfig config;
    config.phoneCount = 2;
    config.campaign = sim::Duration::days(100);
    config.enrollmentWindow = sim::Duration::days(40);
    // Joins at 10 and 30 days: observed 90 + 70 = 160 days.
    EXPECT_NEAR(expectedObservedHours(config), 160.0 * 24.0, 1.0);
}

TEST(FleetPlan, TargetsScaleWithRates) {
    FleetConfig config;
    const auto plan = derivePlan(config);
    const double wallHours = expectedObservedHours(config);
    EXPECT_NEAR(plan.targetFreezes, wallHours / 313.0, 1.0);
    EXPECT_NEAR(plan.targetSelfShutdowns, wallHours / 250.0, 1.0);
    EXPECT_NEAR(plan.targetPanics, wallHours * 396.0 / 112'680.0, 1.0);
    EXPECT_NEAR(plan.expectedOnHours, wallHours * 0.85, 1.0);
    EXPECT_GT(plan.expectedCalls, 0.0);
}

TEST(FleetCampaign, SmallRunProducesAllArtifacts) {
    FleetConfig config;
    config.phoneCount = 3;
    config.campaign = sim::Duration::days(25);
    config.enrollmentWindow = sim::Duration::days(6);
    config.seed = 5;
    config.freezesPerHour *= 8.0;
    config.selfShutdownsPerHour *= 8.0;
    config.panicsPerHour *= 8.0;
    obs::MetricsRegistry metrics;
    config.obs.metrics = &metrics;
    const auto result = runCampaign(config);

    ASSERT_EQ(result.logs.size(), 3u);
    ASSERT_EQ(result.truths.size(), 3u);
    EXPECT_EQ(result.phoneNames.size(), 3u);
    for (const auto& log : result.logs) {
        EXPECT_FALSE(log.logFileContent.empty());
    }
    EXPECT_GT(result.panicsInjected, 5u);
    EXPECT_GT(result.totalBoots, 10u);
    // The logger ran all campaign.  Its ticks are derived, not events.
    EXPECT_GT(metrics.counter("logger", "heartbeats").value(), 10'000u);

    const auto truthMap = result.truthMap();
    EXPECT_EQ(truthMap.size(), 3u);
    EXPECT_NE(truthMap.find("phone-0"), truthMap.end());
}

TEST(FleetCampaign, VersionPoolAssigned) {
    FleetConfig config;
    config.phoneCount = 6;
    config.campaign = sim::Duration::days(2);
    config.enrollmentWindow = sim::Duration::days(1);
    const auto result = runCampaign(config);
    EXPECT_EQ(result.phoneNames.size(), 6u);
}

TEST(CollectionServer, InterleavedChunkUploadsFrom25Phones) {
    // 25 phones' segments arrive interleaved (round-robin, each phone's
    // frames in reverse order) — per-phone chunk maps must never mix.
    const int phoneCountTotal = 25;
    std::vector<std::string> names;
    std::vector<std::string> contents;
    std::vector<std::vector<transport::Frame>> frames;
    std::size_t maxFrames = 0;
    for (int i = 0; i < phoneCountTotal; ++i) {
        names.push_back("phone-" + std::to_string(i));
        contents.push_back(logWithBoots(2 + (i % 7)));
        frames.push_back(transport::chunkLogContent(names.back(), contents.back(), 96));
        maxFrames = std::max(maxFrames, frames.back().size());
    }

    transport::Reassembler server;
    for (std::size_t round = 0; round < maxFrames; ++round) {
        for (int i = 0; i < phoneCountTotal; ++i) {
            const auto& list = frames[static_cast<std::size_t>(i)];
            if (round >= list.size()) continue;
            const auto& frame = list[list.size() - 1 - round];  // reverse order
            const auto ack = server.ingest(transport::encodeFrame(frame)).ack;
            ASSERT_TRUE(ack.has_value());
            EXPECT_EQ(ack->phone, frame.phone);
        }
    }

    const auto heard = std::count_if(names.begin(), names.end(),
                                     [&](const std::string& n) { return server.has(n); });
    EXPECT_EQ(heard, 25);
    EXPECT_TRUE(server.has("phone-0"));
    EXPECT_FALSE(server.has("phone-25"));
    for (int i = 0; i < phoneCountTotal; ++i) {
        const auto idx = static_cast<std::size_t>(i);
        EXPECT_DOUBLE_EQ(server.coverage(names[idx]), 1.0);
        EXPECT_EQ(server.reconstruct(names[idx]), contents[idx]);
    }
}

}  // namespace
}  // namespace symfail::fleet
