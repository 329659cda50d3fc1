// The paper run: one forum study and one default field campaign (25
// phones, 14 months), then every artifact derived from that one data set,
// in paper order: T1, F2, T2, F3, F5 with the A2 window sweep, T3, F6, T4,
// the H1 headline figures, the A3 threshold ablation and the extensions E2
// (TBF fits), E3 (failures by OS version) and E4 (panics as early
// warnings); EXPERIMENTS.md discusses each one.  `--json FILE` writes H1's
// metrics.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/coalescence.hpp"
#include "analysis/evaluator.hpp"
#include "analysis/prediction.hpp"
#include "analysis/reliability.hpp"
#include "analysis/version_stats.hpp"
#include "bench_common.hpp"

namespace {

using namespace symfail;

void header(const std::string& title) {
    std::printf("=== %s ===\n\n", title.c_str());
}

void section(const std::string& title, const std::string& body) {
    header(title);
    std::printf("%s", body.c_str());
}

void coalescence(const core::FieldStudyResults& results) {
    section("F5: panics and high-level events", core::renderFig5(results) + "\n");
    std::printf("--- A2: coalescence window sensitivity ---\n");
    std::printf("%12s  %10s  %8s\n", "window (s)", "related", "fraction");
    const std::vector<double> windows{1,    5,     30,    60,    120,  300,
                                      600,  1'800, 3'600, 7'200, 14'400};
    const auto sweep = analysis::windowSweep(results.dataset, results.classification,
                                             windows);
    for (const auto& point : sweep) {
        std::printf("%12.0f  %10zu  %7.1f%%\n", point.windowSeconds,
                    point.relatedCount, 100.0 * point.relatedFraction);
    }
    std::printf("\nExpected shape: growth up to ~300 s, a plateau, then renewed\n"
                "growth at hour-scale windows from uncorrelated events — the\n"
                "paper's argument for fixing the window at five minutes.\n");
}

void headline(const core::StudyConfig& config, const core::FieldStudyResults& results,
              bench::JsonReporter& json) {
    section("H1: headline figures (25 phones, 14 months)",
            core::renderHeadline(results) + "\n");
    std::printf("campaign: %d phones, %llu boots, %llu simulator events\n",
                config.fleetConfig.phoneCount,
                static_cast<unsigned long long>(results.fleet.totalBoots),
                static_cast<unsigned long long>(results.fleet.simulatorEvents));
    std::printf("injected: %llu panics, %llu hangs, %llu spontaneous reboots\n\n",
                static_cast<unsigned long long>(results.fleet.panicsInjected),
                static_cast<unsigned long long>(results.fleet.hangsInjected),
                static_cast<unsigned long long>(
                    results.fleet.spontaneousRebootsInjected));
    std::printf("%s", core::renderEvaluation(results).c_str());

    const auto& mtbf = results.mtbf;
    json.add("mtbf_freeze_hours", mtbf.mtbfFreezeHours);
    json.add("mtbf_self_shutdown_hours", mtbf.mtbfSelfShutdownHours);
    json.add("mtbf_any_failure_hours", mtbf.mtbfAnyFailureHours);
    json.add("failure_every_days", mtbf.failureEveryDays());
    json.add("freeze_count", static_cast<double>(mtbf.freezeCount));
    json.add("self_shutdown_count", static_cast<double>(mtbf.selfShutdownCount));
    json.add("observed_phone_hours", mtbf.observedPhoneHours);
    json.add("total_boots", static_cast<double>(results.fleet.totalBoots));
    json.add("simulator_events",
             static_cast<double>(results.fleet.simulatorEvents));
    json.add("panics_injected",
             static_cast<double>(results.fleet.panicsInjected));
    json.add("hangs_injected", static_cast<double>(results.fleet.hangsInjected));
    json.add("spontaneous_reboots_injected",
             static_cast<double>(results.fleet.spontaneousRebootsInjected));
}

// The paper fixes the threshold at 360 s by inspecting Figure 2; with
// ground truth the choice can be scored.
void thresholdAblation(const core::FieldStudyResults& results) {
    const auto truthMap = results.fleet.truthMap();
    header("A3: self-shutdown threshold ablation");
    std::printf("%14s  %10s  %12s  %10s  %8s\n", "threshold (s)", "detected",
                "precision", "recall", "F1");
    const std::vector<double> thresholds{30,  60,  120,  240,  360,
                                         500, 900, 1'800, 3'600, 7'200};
    for (const double threshold : thresholds) {
        const analysis::ShutdownDiscriminator discriminator{threshold};
        const auto classification = discriminator.classify(results.dataset);
        const auto evaluation =
            analysis::evaluate(results.dataset, classification, truthMap);
        std::printf("%14.0f  %10zu  %11.1f%%  %9.1f%%  %7.3f\n", threshold,
                    classification.selfShutdowns.size(),
                    100.0 * evaluation.selfShutdownDetection.precision(),
                    100.0 * evaluation.selfShutdownDetection.recall(),
                    evaluation.selfShutdownDetection.f1());
    }
    std::printf("\nExpected shape: recall saturates once the threshold clears the\n"
                "self-reboot duration tail (a few hundred seconds); precision\n"
                "decays as quick user power-cycles start to be misclassified.\n"
                "The paper's 360 s sits near the F1 knee.\n");
}

// The paper stops at means; a Weibull shape below 1 is the distributional
// footprint of the panic cascades it observed.
void reliability(const core::FieldStudyResults& results) {
    const auto tbf = analysis::analyzeTimeBetweenFailures(results.dataset,
                                                          results.classification);
    header("extension: TBF distribution fitting");
    std::printf("pooled inter-failure gaps: %zu (freezes + self-shutdowns, per "
                "phone)\n\n",
                tbf.interarrivalsHours.size());
    std::printf("exponential fit: mean %.1f h, logL %.1f, AIC %.1f\n",
                tbf.exponential.meanHours, tbf.exponential.logLikelihood,
                analysis::aic(tbf.exponential.logLikelihood, 1));
    std::printf("Weibull fit:     shape %.3f, scale %.1f h, logL %.1f, AIC %.1f%s\n",
                tbf.weibull.shape, tbf.weibull.scaleHours,
                tbf.weibull.logLikelihood,
                analysis::aic(tbf.weibull.logLikelihood, 2),
                tbf.weibull.converged ? "" : "  (not converged)");
    std::printf("\npreferred model: %s\n",
                tbf.weibullPreferred ? "Weibull" : "exponential");
    if (tbf.weibull.shape < 1.0) {
        std::printf("shape < 1: decreasing hazard — failures cluster (consistent\n"
                    "with the paper's error-propagation/burst observations).\n");
    } else {
        std::printf("shape >= 1: no clustering beyond the activity-driven\n"
                    "modulation of the fault processes.\n");
    }
}

// The paper's fleet mixed OS versions 6.1-9.0 but reported only aggregates.
void versions(const core::FieldStudyResults& results) {
    const auto rows =
        analysis::versionBreakdown(results.dataset, results.classification);
    header("extension: failures by Symbian OS version");
    std::printf("%10s %8s %14s %9s %10s %8s %14s\n", "version", "phones",
                "observed h", "freezes", "self-shut", "panics", "failures/30d");
    for (const auto& row : rows) {
        std::printf("%10s %8zu %14.0f %9zu %10zu %8zu %14.1f\n", row.version.c_str(),
                    row.phones, row.observedHours, row.freezes, row.selfShutdowns,
                    row.panics, row.failuresPer30Days());
    }
    std::printf("\nFault rates are version-independent in the model (the paper\n"
                "gives no per-version data to calibrate against), so per-version\n"
                "differences here estimate the sampling noise a 25-phone fleet\n"
                "induces — a caution against over-reading small per-group splits\n"
                "in field studies of this size.\n");
}

// How actionable a recorded panic is: P(user-perceived failure within T)
// against the base rate at a random instant, for a sweep of horizons.
void prediction(const core::FieldStudyResults& results) {
    const std::vector<double> horizons{30,    60,     300,    900,
                                       3'600, 21'600, 86'400};
    const auto sweep = analysis::panicWarningAnalysis(
        results.dataset, results.classification, horizons);
    header("extension: panic as an early warning of failure");
    std::printf("%12s  %22s  %12s  %8s\n", "horizon", "P(failure | panic)",
                "base rate", "lift");
    for (const auto& point : sweep) {
        std::printf("%11.0fs  %21.1f%%  %11.2f%%  %7.1fx\n", point.horizonSeconds,
                    100.0 * point.pFailureAfterPanic, 100.0 * point.baseRate,
                    point.lift());
    }
    std::printf(
        "\nAt short horizons the lift is enormous (a panic is a strong,\n"
        "immediate symptom — the Figure 5 coalescence seen from the other\n"
        "side); by day-scale horizons it decays toward 1 (no long-range\n"
        "predictive power).  A recovery mechanism that checkpoints state on\n"
        "panic notification would act within the high-lift window.\n");
}

}  // namespace

int main(int argc, char** argv) {
    bench::JsonReporter json{argc, argv, "paper"};
    const core::StudyConfig config;
    const core::FailureStudy study{config};

    const auto forum = study.runForumStudy();
    section("T1: forum study (" + std::to_string(config.forumConfig.failureReports) +
                " failure reports, as in the paper)",
            core::renderTable1(forum) + "\n" + core::renderForumSummary(forum));

    const auto results = study.runFieldStudy();
    section("F2: reboot durations", core::renderFig2(results));
    section("T2: panic classification", core::renderTable2(results));
    section("F3: panic bursts", core::renderFig3(results));
    coalescence(results);
    section("T3: panic-activity relationship", core::renderTable3(results));
    section("F6: running applications at panic time", core::renderFig6(results));
    section("T4: panic-running applications relationship", core::renderTable4(results));
    headline(config, results, json);
    thresholdAblation(results);
    reliability(results);
    versions(results);
    prediction(results);
    json.write();
    return 0;
}
