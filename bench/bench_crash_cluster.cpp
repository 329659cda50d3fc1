// C1: crash-dump clustering cost.
//
// Two questions about the structured-dump pipeline (ISSUE acceptance:
// capturing dumps must cost the campaign less than 5% wall time):
//   1. How fast does the server-side signature extractor chew through
//      dumps?  (normalize + hash alone, and the full clusterer with its
//      exact-match/near-miss path, dumps/sec over a synthetic corpus that
//      cycles every catalog mechanism with per-occurrence noise)
//   2. What does dump capture cost a live campaign end to end?
//      (captureDumps off vs. on wall time over repeated runs)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "crash/cluster.hpp"
#include "crash/dump.hpp"
#include "crash/signature.hpp"
#include "fleet/fleet.hpp"
#include "symbos/panic.hpp"

namespace {

using namespace symfail;

/// A synthetic dump corpus: every catalog mechanism in rotation, with
/// per-occurrence noise (address, handle digits, timestamps) so the
/// normalizer has real work to do, as it would on field data.
std::vector<crash::CrashDump> syntheticDumps(std::size_t count) {
    const auto table = symbos::paperPanicTable();
    std::vector<crash::CrashDump> dumps;
    dumps.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto& row = table[i % table.size()];
        crash::CrashDump dump;
        dump.time = sim::TimePoint::fromMicros(static_cast<std::int64_t>(i) * 1'000);
        dump.panic = row.id;
        dump.faultAddress = 0x80000000u | static_cast<std::uint32_t>(i * 2'654'435'761u);
        dump.processName = "Messages";
        dump.schedulerAoCount = static_cast<std::uint32_t>(i % 7);
        dump.heapLiveCells = 100 + i % 50;
        dump.heapBytesInUse = 4'096 * (1 + i % 16);
        dump.heapTotalAllocs = 10'000 + i;
        dump.runningApps = {"Messages", "Camera"};
        dump.frames = crash::backtraceFor(
            row.id, "diagnostic with handle " + std::to_string(i * 37) +
                        " at 0x" + std::to_string(1000 + i));
        dumps.push_back(std::move(dump));
    }
    return dumps;
}

void extractorThroughput(bench::JsonReporter& json) {
    constexpr std::size_t kDumps = 100'000;
    const auto dumps = syntheticDumps(kDumps);

    // Signature extraction alone: normalize frames, build the key, hash.
    auto sigStart = bench::Clock::now();
    std::uint64_t hashSink = 0;
    for (const auto& dump : dumps) {
        hashSink ^= crash::signatureHash(crash::signatureOf(dump));
    }
    const double sigElapsed = bench::secondsSince(sigStart);

    // Full clustering: extraction plus family lookup/merge bookkeeping.
    auto clusterStart = bench::Clock::now();
    crash::CrashClusterer clusterer;
    for (std::size_t i = 0; i < dumps.size(); ++i) {
        clusterer.add("phone-" + std::to_string(i % 25), dumps[i]);
    }
    const auto families = clusterer.families();
    const double clusterElapsed = bench::secondsSince(clusterStart);

    const double sigRate =
        sigElapsed > 0.0 ? static_cast<double>(kDumps) / sigElapsed : 0.0;
    const double clusterRate =
        clusterElapsed > 0.0 ? static_cast<double>(kDumps) / clusterElapsed : 0.0;
    std::printf("-- Signature extractor (%zu dumps, %zu families, hash sink %llu)\n",
                kDumps, families.size(),
                static_cast<unsigned long long>(hashSink & 0xF));
    std::printf("%12s  %10s  %14s\n", "stage", "ms", "dumps/sec");
    std::printf("%12s  %10.3f  %14.0f\n", "signature", sigElapsed * 1'000.0, sigRate);
    std::printf("%12s  %10.3f  %14.0f\n", "cluster", clusterElapsed * 1'000.0,
                clusterRate);
    std::printf("\n");
    json.add("signature_dumps_per_sec", sigRate);
    json.add("cluster_dumps_per_sec", clusterRate);
    json.add("families", static_cast<double>(families.size()));
}

void campaignOverhead(bench::JsonReporter& json) {
    constexpr int kRuns = 3;
    const auto [off, on] = bench::bestOf<2>(kRuns, [](std::size_t withDumps) {
        auto config = bench::sweepFleetConfig(2026);
        config.loggerConfig.captureDumps = withDumps != 0;
        (void)fleet::runCampaign(config);
    });
    const double overheadPct = bench::overheadPct(off, on);

    std::printf("-- Campaign overhead (8 phones, 60 days, best of %d)\n", kRuns);
    std::printf("%12s  %10s\n", "dumps", "seconds");
    std::printf("%12s  %10.3f\n", "off", off);
    std::printf("%12s  %10.3f\n", "on", on);
    std::printf("overhead: %.2f%% (acceptance: < 5%%)\n", overheadPct);
    json.add("campaign_seconds_off", off);
    json.add("campaign_seconds_on", on);
    json.add("dump_overhead_pct", overheadPct);
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "crash_cluster"};
    std::printf("=== C1: crash-dump clustering throughput and overhead ===\n\n");
    extractorThroughput(json);
    campaignOverhead(json);
    json.write();
    return 0;
}
