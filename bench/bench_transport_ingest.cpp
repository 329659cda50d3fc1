// T1: log-transport ingest throughput and retransmission overhead.
//
// Two questions about the collection path:
//   1. How fast does the server-side reassembler ingest chunked frames?
//      (records/sec and MB/s over a large synthetic Log File, for
//      in-order, shuffled and duplicate-heavy arrival orders)
//   2. What does unreliability cost end to end?  (a reduced campaign per
//      channel loss rate: delivery ratio, retransmit overhead, bytes on
//      the wire per record delivered)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"
#include "simkernel/rng.hpp"
#include "transport/frame.hpp"
#include "transport/reassembly.hpp"

namespace {

using namespace symfail;

struct IngestRun {
    const char* label;
    const char* key;  ///< Machine-readable suffix for --json metrics.
    std::vector<std::string> wires;  ///< Encoded frames in arrival order.
};

void timeIngest(const IngestRun& run, std::size_t records, std::size_t bytes,
                bench::JsonReporter& json) {
    const auto start = bench::Clock::now();
    transport::Reassembler reassembler;
    for (const auto& wire : run.wires) {
        (void)reassembler.ingest(wire);
    }
    const double elapsed = bench::secondsSince(start);
    const double recordsPerSec =
        elapsed > 0.0 ? static_cast<double>(records) / elapsed : 0.0;
    const double mbPerSec =
        elapsed > 0.0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) / elapsed
                      : 0.0;
    std::printf("%14s  %8zu  %10.3f  %12.0f  %10.1f\n", run.label,
                run.wires.size(), elapsed * 1'000.0, recordsPerSec, mbPerSec);
    json.add(std::string{"ingest_records_per_sec."} + run.key, recordsPerSec);
    json.add(std::string{"ingest_mb_per_sec."} + run.key, mbPerSec);
}

void ingestThroughput(bench::JsonReporter& json) {
    constexpr std::size_t kRecords = 100'000;
    const std::string content = bench::syntheticLog(kRecords);
    const auto frames = transport::chunkLogContent("bench", content, 2048);
    std::vector<std::string> inOrder;
    inOrder.reserve(frames.size());
    for (const auto& frame : frames) inOrder.push_back(transport::encodeFrame(frame));

    sim::Rng rng{1234};
    std::vector<std::string> shuffled = inOrder;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled[i - 1], shuffled[j]);
    }
    std::vector<std::string> withDups;
    withDups.reserve(shuffled.size() * 2);
    for (const auto& wire : shuffled) {
        withDups.push_back(wire);
        if (rng.bernoulli(0.5)) withDups.push_back(wire);
    }

    std::printf("-- Reassembler ingest (%zu records, %.1f MB, 2 KiB segments)\n",
                kRecords, static_cast<double>(content.size()) / (1024.0 * 1024.0));
    std::printf("%14s  %8s  %10s  %12s  %10s\n", "arrival", "frames", "ms",
                "records/sec", "MB/sec");
    timeIngest({"in-order", "in_order", inOrder}, kRecords, content.size(), json);
    timeIngest({"shuffled", "shuffled", shuffled}, kRecords, content.size(), json);
    timeIngest({"50% dups", "half_dups", withDups}, kRecords, content.size(), json);
    std::printf("\n");
}

void campaignOverhead(bench::JsonReporter& json) {
    std::printf("-- End-to-end collection cost (8 phones, 60 days)\n");
    std::printf("%10s  %10s  %12s  %12s  %12s  %14s\n", "loss (%)", "frames",
                "retransmits", "overhead", "delivery", "wire B/record");
    for (const double loss : {0.0, 0.02, 0.05, 0.10, 0.20}) {
        auto config = bench::sweepFleetConfig(2024);
        config.transport.dataChannel.lossProb = loss;
        config.transport.ackChannel.lossProb = loss;
        const auto result = fleet::runCampaign(config);
        const auto& t = result.transport;
        const double bytesPerRecord =
            t.recordsDelivered > 0
                ? static_cast<double>(t.bytesOnWire) /
                      static_cast<double>(t.recordsDelivered)
                : 0.0;
        std::printf("%10.0f  %10llu  %12llu  %11.1f%%  %11.2f%%  %14.0f\n",
                    loss * 100.0,
                    static_cast<unsigned long long>(t.framesSent),
                    static_cast<unsigned long long>(t.retransmits),
                    100.0 * t.retransmitOverhead(), 100.0 * t.deliveryRatio(),
                    bytesPerRecord);
        char prefix[32];
        std::snprintf(prefix, sizeof prefix, "loss_%02.0f.", loss * 100.0);
        json.add(std::string{prefix} + "delivery_ratio", t.deliveryRatio());
        json.add(std::string{prefix} + "retransmit_overhead",
                 t.retransmitOverhead());
        json.add(std::string{prefix} + "wire_bytes_per_record", bytesPerRecord);
    }
}

// Provenance instrumentation cost: the same campaign with and without
// the lineage tracker attached.  The acceptance bar is < 5% wall-clock
// overhead.
void provenanceOverhead(bench::JsonReporter& json) {
    constexpr int kRepeats = 3;
    const auto runOnce = [](std::size_t withTracker) {
        auto config = bench::sweepFleetConfig(2024);
        config.transport.dataChannel.lossProb = 0.05;
        config.transport.ackChannel.lossProb = 0.05;
        obs::ProvenanceTracker tracker;
        if (withTracker != 0) config.obs.provenance = &tracker;
        (void)fleet::runCampaign(config);
    };
    const auto [plain, traced] = bench::bestOf<2>(kRepeats, runOnce);
    const double overheadPct = bench::overheadPct(plain, traced);
    std::printf("\n-- Provenance tracker overhead (best of %d)\n", kRepeats);
    std::printf("    plain  %8.3f s\n    traced %8.3f s\n    overhead %+.2f%%\n",
                plain, traced, overheadPct);
    json.add("provenance_campaign_plain_s", plain);
    json.add("provenance_campaign_traced_s", traced);
    json.add("provenance_overhead_pct", overheadPct);
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "transport_ingest"};
    std::printf("=== T1: log-transport ingest and overhead ===\n\n");
    ingestThroughput(json);
    campaignOverhead(json);
    provenanceOverhead(json);
    json.write();
    return 0;
}
