// Replicated-trial sweep via the library API: how much does transport
// loss move the delivered-record ratio and the measured MTBF, with error
// bars instead of single draws?
//
// Build & run:  ./build/examples/sweep_experiment
#include <cstdio>

#include "experiment/export.hpp"
#include "experiment/grid.hpp"
#include "experiment/runner.hpp"

int main() {
    using namespace symfail;

    // Default cell: a reduced campaign so ten trials stay cheap.
    experiment::Cell defaults;
    defaults.phones = 3;
    defaults.days = 30;

    // Sweep one axis: the data-channel loss probability.
    const auto grid = experiment::Grid::parse(R"({"loss_pct": [0, 10, 30]})", defaults);

    experiment::RunnerOptions options;
    options.trials = 10;
    options.jobs = 4;  // numbers are identical at any jobs value
    options.masterSeed = 2007;
    const experiment::Runner runner{options};
    const auto summary = runner.run(grid);

    std::printf("%s", experiment::renderSweepReport(summary).c_str());

    std::printf("loss sweep, delivery with 95%% CI:\n");
    for (const auto& cell : summary.cells) {
        const auto* delivery = cell.find("transport_delivery_ratio");
        const auto* mtbf = cell.find("mtbf_any_hours");
        if (delivery == nullptr || mtbf == nullptr) continue;
        std::printf("  loss %5.1f%%: delivery %.4f [%.4f, %.4f]  mtbf %6.1f h +- %.1f\n",
                    cell.cell.lossPct, delivery->mean, delivery->ciLow,
                    delivery->ciHigh, mtbf->mean, mtbf->halfWidth());
    }
    return 0;
}
