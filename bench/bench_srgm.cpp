// G1: reliability-growth fitting cost.
//
// Two questions about the SRGM subsystem:
//   1. How fast does one profile-MLE fit run on a 10k-event sequence,
//      per model?  (fits/sec; the Weibull nested search and the
//      Musa-Okumoto O(n)-per-eval likelihood are the expensive members)
//   2. What does the full fleet + per-phone + per-version analysis cost
//      per phone-year of observed failure data?  Measured on the data of
//      the paper-scale campaign, whose own time moves with the simulator:
//      the analysis's share of it is printed for information only.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "simkernel/nhpp.hpp"
#include "simkernel/rng.hpp"
#include "srgm/analyze.hpp"

namespace {

using namespace symfail;

/// ~10k-event ground-truth sequence for one model, sampled by thinning.
srgm::EventData sampleSequence(srgm::ModelKind kind) {
    constexpr double kHorizon = 2000.0;
    srgm::ModelParams params;
    double lambdaMax = 0.0;
    switch (kind) {
        case srgm::ModelKind::GoelOkumoto:
            params = {10200.0, 0.002, 1.0};
            lambdaMax = params.a * params.b;
            break;
        case srgm::ModelKind::MusaOkumoto:
            params = {2200.0, 0.05, 1.0};
            lambdaMax = params.a * params.b;
            break;
        case srgm::ModelKind::DelayedSShaped:
            params = {10300.0, 0.003, 1.0};
            lambdaMax = params.a * params.b / 2.718281828459045;
            break;
        case srgm::ModelKind::WeibullType:
            params = {10200.0, 4.47e-5, 1.5};
            lambdaMax = params.a * params.b * params.c *
                        std::pow(kHorizon, params.c - 1.0);
            break;
    }
    sim::Rng root{20260807};
    sim::Rng rng = root.substream(modelName(kind));
    auto times = sim::sampleNhppByThinning(
        rng, [&](double t) { return srgm::intensity(kind, params, t); },
        lambdaMax, kHorizon);
    return srgm::EventData::singleWindow(std::move(times), kHorizon);
}

void fitThroughput(bench::JsonReporter& json) {
    std::printf("-- Profile-MLE throughput (10k-event sequences)\n");
    std::printf("%18s  %8s  %10s  %12s\n", "model", "events", "ms/fit",
                "fits/sec");
    for (const srgm::ModelKind kind : srgm::kAllModels) {
        const srgm::EventData data = sampleSequence(kind);
        (void)srgm::fitModel(kind, data);  // warm-up
        const auto start = bench::Clock::now();
        int reps = 0;
        double elapsed = 0.0;
        do {
            const srgm::FitResult fit = srgm::fitModel(kind, data);
            if (!fit.converged) std::printf("  (fit did not converge)\n");
            ++reps;
            elapsed = bench::secondsSince(start);
        } while (elapsed < 0.25);
        const double fitsPerSec = static_cast<double>(reps) / elapsed;
        std::printf("%18s  %8zu  %10.3f  %12.1f\n",
                    std::string{modelName(kind)}.c_str(), data.events(),
                    elapsed / reps * 1'000.0, fitsPerSec);
        std::string metric{modelName(kind)};
        for (char& ch : metric) {
            if (ch == '-') ch = '_';
        }
        json.add(metric + "_fits_per_sec", fitsPerSec);
    }
    std::printf("\n");
}

void analysisCost(bench::JsonReporter& json) {
    const auto studyStart = bench::Clock::now();
    const auto results = core::FailureStudy{core::StudyConfig{}}.runFieldStudy();
    const double studyElapsed = bench::secondsSince(studyStart);

    // The full analysis the CLI runs: fleet + per-phone + per-version
    // fits, each with the holdout benchmark.  Median of five runs.
    std::array<double, 5> runs{};
    srgm::SrgmReport report;
    for (double& run : runs) {
        const auto start = bench::Clock::now();
        report = srgm::analyzeSrgm(results.dataset, results.classification);
        run = bench::secondsSince(start);
    }
    std::sort(runs.begin(), runs.end());
    const double analyzeElapsed = runs[runs.size() / 2];
    const double phoneYears =
        results.dataset.totalObservedTime().asSecondsF() / (365.25 * 86'400.0);
    const double perPhoneYear = analyzeElapsed / phoneYears;
    const double sharePct =
        studyElapsed > 0.0 ? analyzeElapsed / studyElapsed * 100.0 : 0.0;

    std::printf("-- Full analysis cost per phone-year of data\n");
    std::printf("%24s  %10s\n", "stage", "seconds");
    std::printf("%24s  %10.3f\n", "campaign + pipeline", studyElapsed);
    std::printf("%24s  %10.3f  (median of %zu)\n", "srgm analysis", analyzeElapsed,
                runs.size());
    std::printf("groups: fleet + %zu phones + %zu versions, %zu fleet events, "
                "%.1f phone-years observed\n",
                report.phones.size(), report.versions.size(), report.fleet.events,
                phoneYears);
    std::printf("cost: %.2f ms per phone-year\n", perPhoneYear * 1'000.0);
    std::printf("campaign share: %.2f%% (informational)\n", sharePct);
    json.add("campaign_seconds", studyElapsed);
    json.add("analysis_seconds", analyzeElapsed);
    json.add("phone_years", phoneYears);
    json.add("srgm_seconds_per_phone_year", perPhoneYear);
    json.add("srgm_campaign_share_pct", sharePct);
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "srgm"};
    std::printf("=== G1: reliability-growth fitting cost ===\n\n");
    fitThroughput(json);
    analysisCost(json);
    json.write();
    return 0;
}
