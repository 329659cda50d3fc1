// F1: OS-interface fault-plane cost.
//
// Two questions about the fault planes (ISSUE acceptance: attaching every
// plane idle — hooks installed, zero rates — must cost the campaign less
// than 5% wall time, since an instrument that slows the campaign down
// would itself perturb the measurement it validates):
//   1. What do the idle hooks cost a campaign end to end?
//      (planes-absent vs. attachIdle wall time over repeated runs)
//   2. What does a realistically faulted campaign cost, for context?
//      (all four planes at calibrated rates)
#include <cstdio>

#include "bench_common.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace symfail;

enum class Planes { Absent, Idle, Active };

void runCampaignWith(Planes planes) {
    auto config = bench::sweepFleetConfig(2026);
    switch (planes) {
        case Planes::Absent: break;
        case Planes::Idle: config.osfault.attachIdle = true; break;
        case Planes::Active:
            config.osfault.flash.faultsPerKHour = 20.0;
            config.osfault.memory.episodesPerKHour = 4.0;
            config.osfault.clock.skewPpm = 100.0;
            config.osfault.clock.jumpsPerKHour = 2.0;
            config.osfault.radio.faultsPerKHour = 10.0;
            break;
    }
    (void)fleet::runCampaign(config);
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "osfault"};
    std::printf("=== F1: fault-plane attach cost ===\n\n");

    constexpr int kRuns = 3;
    const auto [absent, idle, active] = bench::bestOf<3>(
        kRuns, [](std::size_t planes) { runCampaignWith(static_cast<Planes>(planes)); });
    const double idlePct = bench::overheadPct(absent, idle);
    const double activePct = bench::overheadPct(absent, active);

    std::printf("-- Campaign wall time (8 phones, 60 days, best of %d)\n", kRuns);
    std::printf("%12s  %10s\n", "planes", "seconds");
    std::printf("%12s  %10.3f\n", "absent", absent);
    std::printf("%12s  %10.3f\n", "idle", idle);
    std::printf("%12s  %10.3f\n", "active", active);
    std::printf("idle overhead: %.2f%% (acceptance: < 5%%)\n", idlePct);
    std::printf("active overhead: %.2f%% (context only)\n", activePct);
    json.add("campaign_seconds_absent", absent);
    json.add("campaign_seconds_idle", idle);
    json.add("campaign_seconds_active", active);
    json.add("idle_overhead_pct", idlePct);
    json.write();
    return 0;
}
