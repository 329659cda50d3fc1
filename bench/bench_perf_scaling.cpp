// P1: capacity-accounting cost and campaign scaling.
//
// Two questions about the perf subsystem (ISSUE acceptance: the
// accounting sweep must cost the campaign less than 5% wall time — an
// instrument that slows the campaign it measures would distort its own
// throughput numbers):
//   1. What does the periodic accounting sweep cost end to end?
//      (accounting-off vs. accounting-on wall time over repeated runs)
//   2. How does throughput and footprint scale with fleet size?
//      (phone-hours/sec and bytes/phone at a small and a mid-size fleet)
//   3. What do the phones gain from running on every hardware thread?
//      (phone-hours/sec inline and on all threads, 1k and 10k phones)
#include <cstdio>

#include "bench_common.hpp"
#include "core/perf.hpp"
#include "fleet/fleet.hpp"
#include "obs/accountant.hpp"
#include "simkernel/pool.hpp"

namespace {

using namespace symfail;

void runCampaignWith(bool accounting) {
    auto config = bench::sweepFleetConfig(2026);
    obs::ResourceAccountant accountant;
    if (accounting) {
        config.obs.accountant = &accountant;
        config.obs.accountingInterval = sim::Duration::hours(6);
    }
    (void)fleet::runCampaign(config);
}

/// Phone-hours per wall second of a default `phones` x 1-day campaign with
/// no profiler, run on every hardware thread or as the one task of a pool
/// run, which grants it one thread, so its phones run inline.
double phoneHoursPerSecond(int phones, bool inlinePhones) {
    fleet::FleetConfig config;
    config.phoneCount = phones;
    config.seed = 2026;
    fleet::setCampaignDays(config, 1);
    const auto start = bench::Clock::now();
    if (inlinePhones) {
        sim::runWorkStealing(1, 1, [&](std::size_t) { (void)fleet::runCampaign(config); });
    } else {
        (void)fleet::runCampaign(config);
    }
    return fleet::expectedObservedHours(config) / bench::secondsSince(start);
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "perf_scaling"};
    std::printf("=== P1: capacity-accounting cost and scaling ===\n\n");

    constexpr int kRuns = 3;
    const auto [off, on] = bench::bestOf<2>(
        kRuns, [](std::size_t accounting) { runCampaignWith(accounting != 0); });
    const double overheadPct = bench::overheadPct(off, on);

    std::printf("-- Campaign wall time (8 phones, 60 days, best of %d)\n", kRuns);
    std::printf("%12s  %10s\n", "accounting", "seconds");
    std::printf("%12s  %10.3f\n", "off", off);
    std::printf("%12s  %10.3f\n", "on", on);
    std::printf("accounting overhead: %.2f%% (acceptance: < 5%%)\n\n", overheadPct);
    json.add("campaign_seconds_off", off);
    json.add("campaign_seconds_on", on);
    json.add("accounting_overhead_pct", overheadPct);

    core::PerfOptions options;
    options.fleetSizes = {25, 1000};
    options.days = 2;
    options.seed = 2026;
    const core::PerfReport report = core::runPerfScaling(options);
    std::printf("-- Scaling ladder (%lld days per cell)\n", options.days);
    std::printf("%8s  %16s  %14s  %12s\n", "phones", "phone-hours/sec",
                "bytes/phone", "peak RSS MB");
    for (const core::PerfCell& cell : report.cells) {
        std::printf("%8d  %16.0f  %14.0f  %12.1f\n", cell.phones,
                    cell.phoneHoursPerSec, cell.bytesPerPhone,
                    static_cast<double>(cell.peakRssBytes) / (1024.0 * 1024.0));
        const std::string prefix = "phones_" + std::to_string(cell.phones);
        // bytes/phone derives from simulated state — deterministic, so the
        // 15% compare threshold only trips on real footprint growth.  The
        // per-cell wall time and throughput are informational (the small
        // cell is too short to gate on); the ladder's top cell supplies
        // the gated throughput metric below.
        json.add(prefix + "_bytes_per_phone", cell.bytesPerPhone);
        json.add(prefix + ".phone_hours_per_wall_second", cell.phoneHoursPerSec);
        json.add(prefix + ".wall_seconds", cell.wallSeconds);
    }
    if (!report.cells.empty()) {
        json.add("scaling_phone_hours_per_sec",
                 report.cells.back().phoneHoursPerSec);
    }

    // ROADMAP item 5: one simulator per phone.  No baseline entry, so the
    // compare step reports these without gating them.
    std::printf("\n-- Phones on all threads vs inline (1 day, no profiler)\n");
    std::printf("%8s  %16s  %16s  %8s\n", "phones", "inline ph/sec", "threads ph/sec",
                "ratio");
    for (const int phones : {1000, 10000}) {
        const double inlineRate = phoneHoursPerSecond(phones, true);
        const double threadsRate = phoneHoursPerSecond(phones, false);
        const double ratio = threadsRate / inlineRate;
        std::printf("%8d  %16.0f  %16.0f  %7.2fx\n", phones, inlineRate, threadsRate, ratio);
        const std::string prefix = "phones_" + std::to_string(phones);
        json.add(prefix + ".inline_phone_hours_per_sec", inlineRate);
        json.add(prefix + ".threads_phone_hours_per_sec", threadsRate);
        json.add(prefix + ".threads_speedup", ratio);
    }
    json.write();
    return 0;
}
