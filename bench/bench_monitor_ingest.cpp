// O1: online fleet-health monitor cost.
//
// Two questions about the monitor (ISSUE acceptance: attaching it must
// cost the campaign less than 5% wall time):
//   1. How fast does the streaming pipeline chew through frames?
//      (tap -> line buffer -> record parse -> health engine, records/sec
//      over a large synthetic Log File, vs. a direct batch parse+feed)
//   2. What does attaching the monitor cost a live campaign end to end?
//      (monitor-off vs. monitor-on wall time over repeated runs)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"
#include "logger/records.hpp"
#include "monitor/health.hpp"
#include "monitor/monitor.hpp"
#include "monitor/stream.hpp"
#include "transport/frame.hpp"

namespace {

using namespace symfail;

void streamThroughput(bench::JsonReporter& json) {
    constexpr std::size_t kRecords = 100'000;
    const std::string content = bench::syntheticLog(kRecords);
    const auto frames = transport::chunkLogContent("bench", content, 2048);

    // Batch reference: parse the whole file once and feed the engine.
    auto batchStart = bench::Clock::now();
    monitor::HealthEngine batchEngine;
    for (const auto& entry : logger::parseLogFile(content)) {
        batchEngine.onRecord("bench", entry);
    }
    batchEngine.finalize();
    const double batchElapsed = bench::secondsSince(batchStart);

    // Streaming path: every frame through tap + line buffer + parse.
    auto streamStart = bench::Clock::now();
    monitor::SegmentTap tap;
    monitor::LineBuffer lines;
    monitor::HealthEngine streamEngine;
    const auto at = sim::TimePoint::origin();
    std::uint64_t streamed = 0;
    for (const auto& frame : frames) {
        const std::string released =
            tap.push(frame.seq, frame.segCount, frame.payload, at);
        if (released.empty()) continue;
        for (const auto& entry : logger::parseLogFile(lines.feed(released))) {
            streamEngine.onRecord("bench", entry);
            ++streamed;
        }
    }
    for (const auto& entry : logger::parseLogFile(lines.feed(tap.flush()))) {
        streamEngine.onRecord("bench", entry);
        ++streamed;
    }
    streamEngine.finalize();
    const double streamElapsed = bench::secondsSince(streamStart);

    const double batchRate =
        batchElapsed > 0.0 ? static_cast<double>(kRecords) / batchElapsed : 0.0;
    const double streamRate =
        streamElapsed > 0.0 ? static_cast<double>(streamed) / streamElapsed : 0.0;
    std::printf("-- Streaming pipeline (%zu records, %zu frames, 2 KiB segments)\n",
                kRecords, frames.size());
    std::printf("%12s  %10s  %14s\n", "path", "ms", "records/sec");
    std::printf("%12s  %10.3f  %14.0f\n", "batch", batchElapsed * 1'000.0,
                batchRate);
    std::printf("%12s  %10.3f  %14.0f\n", "streaming", streamElapsed * 1'000.0,
                streamRate);
    std::printf("\n");
    json.add("stream_records_per_sec", streamRate);
    json.add("batch_records_per_sec", batchRate);
}

void campaignOverhead(bench::JsonReporter& json) {
    constexpr int kRuns = 3;
    const auto [off, on] = bench::bestOf<2>(kRuns, [](std::size_t withMonitor) {
        auto config = bench::sweepFleetConfig(2025);
        monitor::FleetMonitor fleetMonitor;
        if (withMonitor != 0) config.obs.monitor = &fleetMonitor;
        (void)fleet::runCampaign(config);
    });
    const double overheadPct = bench::overheadPct(off, on);

    std::printf("-- Campaign overhead (8 phones, 60 days, best of %d)\n", kRuns);
    std::printf("%12s  %10s\n", "monitor", "seconds");
    std::printf("%12s  %10.3f\n", "off", off);
    std::printf("%12s  %10.3f\n", "on", on);
    std::printf("overhead: %.2f%% (acceptance: < 5%%)\n", overheadPct);
    json.add("campaign_seconds_off", off);
    json.add("campaign_seconds_on", on);
    json.add("monitor_overhead_pct", overheadPct);
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "monitor_ingest"};
    std::printf("=== O1: online monitor ingest and overhead ===\n\n");
    streamThroughput(json);
    campaignOverhead(json);
    json.write();
    return 0;
}
