// Golden digests of the regenerated paper artifacts.
//
// Run-vs-run checks such as Integration.CampaignIsDeterministic cannot see
// a change that shifts every run the same way.  These tests pin a 64-bit
// FNV-1a digest of core::fieldResultsToJson for two short fixed-seed
// campaigns, plus one of what the collection server holds at campaign
// end, so any drift in what the pipeline computes fails tier-1.  The JSON
// digest equals the FNV-1a of the file `symfail campaign ... --json`
// writes for the command quoted on each test.
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

#include "core/export.hpp"
#include "core/study.hpp"

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
    expectDigests(config, 0x9d1e74e9bb68a609ULL, 0xf1f01e76ed1d7ac0ULL);
}

}  // namespace
}  // namespace symfail
