// S1 — experiment-engine scaling: wall-clock speedup of replicated trials
// at --jobs 2/4/8 over --jobs 1 with the null obs sink.
//
// The workload is 16 identical-cost trials of a reduced campaign.  The
// trials that run at once split the hardware threads, and each trial's
// campaign runs its 4 phones on its share, so --jobs 1 already keeps the
// machine busy with one trial's phones: the speedup no longer approaches
// jobs, and shows only what running trials side by side gains over one
// trial's serial phases (set-up, journal delivery, analysis).  The run
// also cross-checks the determinism contract: every jobs value must
// produce byte-identical sweep JSON.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "experiment/export.hpp"
#include "experiment/runner.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Run {
    double seconds{0.0};
    std::string json;
};

Run runSweep(int jobs) {
    symfail::experiment::Cell cell;
    cell.phones = 4;
    cell.days = 45;
    symfail::experiment::RunnerOptions options;
    options.trials = 16;
    options.jobs = jobs;
    options.masterSeed = 2007;
    options.bootstrapResamples = 0;  // time the trials, not the resampler
    const symfail::experiment::Runner runner{options};

    const auto start = Clock::now();
    const auto summary = runner.run(symfail::experiment::Grid::single(cell));
    const auto stop = Clock::now();
    Run run;
    run.seconds = std::chrono::duration<double>(stop - start).count();
    run.json = symfail::experiment::sweepToJson(summary);
    return run;
}

}  // namespace

int main(int argc, char** argv) {
    symfail::bench::JsonReporter reporter{argc, argv, "sweep_scaling"};

    std::printf("S1 — sweep scaling: 16 trials, 4 phones x 45 days per trial\n\n");
    std::printf("%6s %12s %10s\n", "jobs", "seconds", "speedup");

    Run baseline;
    for (const int jobs : {1, 2, 4, 8}) {
        const Run run = runSweep(jobs);
        if (jobs == 1) {
            baseline = run;
        } else if (run.json != baseline.json) {
            std::fprintf(stderr,
                         "FAIL: sweep JSON at --jobs %d differs from --jobs 1\n",
                         jobs);
            return 1;
        }
        const double speedup = baseline.seconds / run.seconds;
        std::printf("%6d %12.3f %9.2fx\n", jobs, run.seconds, speedup);
        char name[32];
        std::snprintf(name, sizeof name, "seconds_jobs%d", jobs);
        reporter.add(name, run.seconds);
        std::snprintf(name, sizeof name, "speedup_jobs%d", jobs);
        reporter.add(name, speedup);
    }

    std::printf(
        "\ndeterminism: sweep JSON byte-identical across all jobs values\n");
    reporter.write();
    return 0;
}
