// Shared helpers for the benches: the counting allocator and JSON reporter,
// the reduced campaign that parameter sweeps re-run, and the timing rule of
// the cost benches (the benches that price an instrument's overhead).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/render.hpp"
#include "core/study.hpp"
#include "logger/records.hpp"
#include "obs/accountant.hpp"  // readPeakRssBytes
#include "obs/file.hpp"
#include "obs/trace.hpp"       // appendJsonEscaped

namespace symfail::bench::detail {

/// Process-wide heap counters fed by the replacement operator new below.
/// Relaxed atomics: the counts only need to be consistent at report time.
inline std::atomic<std::uint64_t> heapAllocs{0};
inline std::atomic<std::uint64_t> heapBytes{0};

}  // namespace symfail::bench::detail

// Counting replacement allocator: every bench binary includes this header
// exactly once, so replacing the global (unaligned) new/delete here is
// well-defined and gives each bench allocation-count and allocated-byte
// telemetry for free.  Over-aligned allocations keep the default operators.
// noinline keeps the malloc/free bodies opaque at call sites, which would
// otherwise trip -Wmismatched-new-delete when only one side is inlined.
#if defined(__GNUC__) || defined(__clang__)
#define SYMFAIL_BENCH_NOINLINE __attribute__((noinline))
#else
#define SYMFAIL_BENCH_NOINLINE
#endif
SYMFAIL_BENCH_NOINLINE void* operator new(std::size_t size) {
    symfail::bench::detail::heapAllocs.fetch_add(1, std::memory_order_relaxed);
    symfail::bench::detail::heapBytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
SYMFAIL_BENCH_NOINLINE void* operator new[](std::size_t size) {
    return ::operator new(size);
}
SYMFAIL_BENCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
SYMFAIL_BENCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
SYMFAIL_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}
SYMFAIL_BENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
    std::free(p);
}

namespace symfail::bench {

/// Machine-readable bench results.  A bench that builds a reporter accepts
/// `--json FILE`: the human-readable report still goes to stdout, and the
/// named scalar results land in FILE as one JSON document
/// ({"bench": "...", "metrics": {"name": value, ...}}), so CI can diff or
/// plot bench output without scraping printf text.
class JsonReporter {
public:
    JsonReporter(int argc, char** argv, std::string benchName)
        : benchName_{std::move(benchName)} {
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::string_view{argv[i]} == "--json") path_ = argv[i + 1];
        }
    }

    [[nodiscard]] bool enabled() const { return !path_.empty(); }

    void add(std::string_view name, double value) {
        metrics_.emplace_back(std::string{name}, value);
    }

    /// Writes the document; no-op without --json.  Throws on I/O failure.
    /// Besides the bench's own metrics, every document carries the host
    /// capacity columns: peak_rss_mb (VmHWM), heap_allocs and
    /// heap_alloc_mb (from the counting allocator above).  Machine- and
    /// allocator-specific — compare trends, not exact values.
    void write() const {
        if (!enabled()) return;
        std::string out = "{\"bench\":\"";
        obs::appendJsonEscaped(out, benchName_);
        out += "\",\"metrics\":{";
        bool first = true;
        auto metrics = metrics_;
        metrics.emplace_back(
            "peak_rss_mb",
            static_cast<double>(obs::readPeakRssBytes()) / (1024.0 * 1024.0));
        metrics.emplace_back(
            "heap_allocs", static_cast<double>(detail::heapAllocs.load(
                               std::memory_order_relaxed)));
        metrics.emplace_back(
            "heap_alloc_mb",
            static_cast<double>(
                detail::heapBytes.load(std::memory_order_relaxed)) /
                (1024.0 * 1024.0));
        for (const auto& [name, value] : metrics) {
            if (!first) out += ',';
            first = false;
            out += '"';
            obs::appendJsonEscaped(out, name);
            out += "\":";
            char buf[48];
            std::snprintf(buf, sizeof buf, "%.10g", value);
            out += buf;
        }
        out += "}}\n";
        obs::writeFile(path_, out);
        std::printf("wrote bench results to %s\n", path_.c_str());
    }

private:
    std::string benchName_;
    std::string path_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/// A reduced campaign for parameter sweeps that re-run the simulation
/// (rates scaled up so short campaigns still see enough events).
inline fleet::FleetConfig sweepFleetConfig(std::uint64_t seed) {
    fleet::FleetConfig config;
    config.phoneCount = 8;
    config.campaign = sim::Duration::days(60);
    config.enrollmentWindow = sim::Duration::days(10);
    config.seed = seed;
    config.freezesPerHour *= 6.0;
    config.selfShutdownsPerHour *= 6.0;
    config.panicsPerHour *= 6.0;
    return config;
}

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds elapsed since `start`.
inline double secondsSince(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The cost benches' timing rule.  Times one warm-up call of
/// `runVariant(0)` (touches code and allocator once), then `runs` rounds
/// that time `runVariant(v)` for every variant v in [0, N) in turn, and
/// returns each variant's fastest run: best-of-N keeps scheduler noise out
/// of an overhead comparison.
template <std::size_t N, typename RunVariant>
std::array<double, N> bestOf(int runs, RunVariant&& runVariant) {
    const auto timeOnce = [&](std::size_t variant) {
        const auto start = Clock::now();
        runVariant(variant);
        return secondsSince(start);
    };
    (void)timeOnce(0);
    std::array<double, N> best;
    best.fill(std::numeric_limits<double>::infinity());
    for (int round = 0; round < runs; ++round) {
        for (std::size_t v = 0; v < N; ++v) best[v] = std::min(best[v], timeOnce(v));
    }
    return best;
}

/// How much longer `with` took than `base`, in percent (0 if base is 0).
inline double overheadPct(double base, double with) {
    return base > 0.0 ? (with - base) / base * 100.0 : 0.0;
}

/// A Log File of one META line and `records` boot records, one second
/// apart: the input of the ingest-throughput sections.
inline std::string syntheticLog(std::size_t records) {
    std::string content;
    content += logger::serialize(
                   logger::MetaRecord{sim::TimePoint::fromMicros(0), "8.0"}) +
               "\n";
    for (std::size_t i = 0; i < records; ++i) {
        logger::BootRecord boot;
        boot.time = sim::TimePoint::fromMicros(static_cast<std::int64_t>(i + 1) *
                                               1'000'000);
        boot.prior = logger::PriorShutdown::Reboot;
        boot.lastBeatAt = boot.time - sim::Duration::seconds(30);
        content += logger::serialize(boot) + "\n";
    }
    return content;
}

}  // namespace symfail::bench
