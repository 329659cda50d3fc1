#include "srgm/analyze.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "analysis/tables.hpp"
#include "obs/file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"  // jsonNum, jsonString

namespace symfail::srgm {
namespace {

using analysis::TextTable;

constexpr double kSecondsPerHour = 3'600.0;

/// Per-phone failure instants (campaign clock, seconds): freezes plus
/// classified self-shutdowns — the paper's user-perceived failure
/// population, same as the MTBF and TBF analyses.
std::map<std::string, std::vector<double>> failureInstants(
    const analysis::LogDataset& dataset,
    const analysis::ShutdownClassification& cls) {
    std::map<std::string, std::vector<double>> perPhone;
    for (const auto& freeze : dataset.freezes()) {
        perPhone[freeze.phoneName].push_back(freeze.lastAliveAt.asSecondsF());
    }
    for (const auto& self : cls.selfShutdowns) {
        perPhone[self.phoneName].push_back(self.shutdownAt.asSecondsF());
    }
    for (auto& [phone, times] : perPhone) std::sort(times.begin(), times.end());
    return perPhone;
}

GroupReport analyzeGroup(std::string name, const EventData& data,
                         const SrgmOptions& options) {
    GroupReport group;
    group.name = std::move(name);
    group.events = data.events();
    group.observedHours = data.totalHours();
    group.mtbfHours = group.events > 0
                          ? group.observedHours / static_cast<double>(group.events)
                          : 0.0;
    group.laplace = laplaceTrend(data);
    group.fits = fitAllModels(data);
    group.bestIndex = selectBest(group.fits);
    group.holdout = holdoutForecast(data, options.holdoutSplit);
    return group;
}

using obs::jsonNum;
using obs::jsonString;

std::string fitJson(const FitResult& fit, bool best) {
    std::string json = "{\"model\": ";
    json += jsonString(modelName(fit.kind));
    json += ", \"a\": " + jsonNum(fit.params.a);
    json += ", \"b\": " + jsonNum(fit.params.b);
    json += ", \"c\": " + jsonNum(fit.params.c);
    json += ", \"log_likelihood\": " + jsonNum(fit.logLikelihood);
    json += ", \"aic\": " + jsonNum(fit.aic);
    json += ", \"bic\": " + jsonNum(fit.bic);
    json += ", \"ks_distance\": " + jsonNum(fit.ksDistance);
    json += ", \"converged\": ";
    json += fit.converged ? "true" : "false";
    json += ", \"selected\": ";
    json += best ? "true" : "false";
    json += "}";
    return json;
}

std::string holdoutJson(const HoldoutResult& h) {
    std::string json = "{\"valid\": ";
    json += h.valid ? "true" : "false";
    json += ", \"split\": " + jsonNum(h.splitFraction);
    json += ", \"prefix_events\": " + std::to_string(h.prefixEvents);
    json += ", \"tail_events\": " + std::to_string(h.tailEvents);
    json += ", \"best_model\": " + jsonString(modelName(h.bestKind));
    json += ", \"predicted_tail_count\": " + jsonNum(h.predictedTailCount);
    json += ", \"actual_tail_count\": " + jsonNum(h.actualTailCount);
    json += ", \"count_rel_error\": " + jsonNum(h.countRelError);
    json += ", \"predicted_tail_mtbf_hours\": " + jsonNum(h.predictedTailMtbfHours);
    json += ", \"actual_tail_mtbf_hours\": " + jsonNum(h.actualTailMtbfHours);
    json += ", \"preq_loglik_nhpp\": " + jsonNum(h.preqLogLikNhpp);
    json += ", \"preq_loglik_hpp\": " + jsonNum(h.preqLogLikHpp);
    json += ", \"preq_gain_vs_hpp\": " + jsonNum(h.preqGainVsHpp);
    json += "}";
    return json;
}

std::string groupJson(const GroupReport& g) {
    std::string json = "{\"name\": " + jsonString(g.name);
    json += ", \"events\": " + std::to_string(g.events);
    json += ", \"observed_hours\": " + jsonNum(g.observedHours);
    json += ", \"mtbf_hours\": " + jsonNum(g.mtbfHours);
    json += ", \"laplace_trend\": " + jsonNum(g.laplace);
    json += ", \"best_model\": ";
    json += g.bestIndex < g.fits.size()
                ? jsonString(modelName(g.fits[g.bestIndex].kind))
                : "null";
    json += ", \"fits\": [";
    for (std::size_t i = 0; i < g.fits.size(); ++i) {
        if (i != 0) json += ", ";
        json += fitJson(g.fits[i], i == g.bestIndex);
    }
    json += "], \"holdout\": " + holdoutJson(g.holdout);
    json += "}";
    return json;
}

void renderGroupText(const GroupReport& g, std::string& out) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "srgm %s: events=%zu observed_h=%.1f mtbf_h=%.1f "
                  "laplace=%+.2f best=%s\n",
                  g.name.c_str(), g.events, g.observedHours, g.mtbfHours,
                  g.laplace,
                  g.bestIndex < g.fits.size()
                      ? std::string{modelName(g.fits[g.bestIndex].kind)}.c_str()
                      : "none");
    out += buf;
    for (const FitResult& fit : g.fits) {
        std::snprintf(buf, sizeof buf,
                      "  fit %-16s a=%-10.4g b=%-12.6g c=%-8.4g logl=%-12.4f "
                      "aic=%-12.4f bic=%-12.4f ks=%.4f%s\n",
                      std::string{modelName(fit.kind)}.c_str(), fit.params.a,
                      fit.params.b, fit.params.c, fit.logLikelihood, fit.aic,
                      fit.bic, fit.ksDistance,
                      fit.converged ? "" : " (not converged)");
        out += buf;
    }
    const HoldoutResult& h = g.holdout;
    if (h.valid) {
        std::snprintf(buf, sizeof buf,
                      "  holdout split=%.2f: prefix=%zu tail=%zu best=%s "
                      "pred=%.1f actual=%.0f rel_err=%.3f "
                      "preq_gain_vs_hpp=%.2f\n",
                      h.splitFraction, h.prefixEvents, h.tailEvents,
                      std::string{modelName(h.bestKind)}.c_str(),
                      h.predictedTailCount, h.actualTailCount, h.countRelError,
                      h.preqGainVsHpp);
        out += buf;
    } else {
        std::snprintf(buf, sizeof buf,
                      "  holdout split=%.2f: insufficient data\n",
                      h.splitFraction);
        out += buf;
    }
}

/// Shortest-round-trip-ish formatting for CSV cells whose magnitude spans
/// decades (rate parameters can be 1e-9): fixed-precision decimals would
/// flush them to zero.
std::string sci(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return buf;
}

void addGroupRows(const GroupReport& g, TextTable& fitsTable,
                  TextTable& holdoutTable) {
    for (std::size_t i = 0; i < g.fits.size(); ++i) {
        const FitResult& fit = g.fits[i];
        fitsTable.addRow({g.name, std::string{modelName(fit.kind)},
                          std::to_string(fit.events), sci(fit.params.a),
                          sci(fit.params.b), sci(fit.params.c),
                          TextTable::num(fit.logLikelihood, 4),
                          TextTable::num(fit.aic, 4), TextTable::num(fit.bic, 4),
                          TextTable::num(fit.ksDistance, 4),
                          fit.converged ? "1" : "0",
                          i == g.bestIndex ? "1" : "0"});
    }
    const HoldoutResult& h = g.holdout;
    holdoutTable.addRow(
        {g.name, h.valid ? "1" : "0", TextTable::num(h.splitFraction, 2),
         std::to_string(h.prefixEvents), std::to_string(h.tailEvents),
         std::string{modelName(h.bestKind)},
         TextTable::num(h.predictedTailCount, 2),
         TextTable::num(h.actualTailCount, 2), TextTable::num(h.countRelError, 4),
         TextTable::num(h.preqLogLikNhpp, 4), TextTable::num(h.preqLogLikHpp, 4),
         TextTable::num(h.preqGainVsHpp, 4)});
}

}  // namespace

SrgmReport analyzeSrgm(const analysis::LogDataset& dataset,
                       const analysis::ShutdownClassification& cls,
                       const SrgmOptions& options) {
    SrgmReport report;
    report.options = options;

    const auto perPhone = failureInstants(dataset, cls);
    std::map<std::string, const analysis::PhoneSpan*> spanOf;
    for (const auto& span : dataset.spans()) spanOf[span.phoneName] = &span;

    // Fleet level: one window on the campaign clock, ending at the last
    // observed instant across the fleet.  The enrollment ramp (phones
    // joining over time) is part of the process being modeled.
    double fleetEndHours = 0.0;
    for (const auto& span : dataset.spans()) {
        fleetEndHours =
            std::max(fleetEndHours, span.last.asSecondsF() / kSecondsPerHour);
    }
    std::vector<double> fleetTimes;
    for (const auto& [phone, times] : perPhone) {
        for (const double t : times) fleetTimes.push_back(t / kSecondsPerHour);
    }
    report.fleet = analyzeGroup(
        "fleet", EventData::singleWindow(std::move(fleetTimes), fleetEndHours),
        options);

    // Per-phone and per-version groups run on phone-relative clocks.
    std::map<std::string, EventData> versionData;
    for (const auto& span : dataset.spans()) {
        const double endHours = span.span().asSecondsF() / kSecondsPerHour;
        if (endHours <= 0.0) continue;
        std::vector<double> relative;
        if (const auto it = perPhone.find(span.phoneName); it != perPhone.end()) {
            for (const double t : it->second) {
                relative.push_back((t - span.first.asSecondsF()) /
                                   kSecondsPerHour);
            }
        }
        if (options.perPhone) {
            report.phones.push_back(analyzeGroup(
                span.phoneName, EventData::singleWindow(relative, endHours),
                options));
        }
        if (options.perVersion) {
            EventData& data = versionData[dataset.versionOf(span.phoneName)];
            std::sort(relative.begin(), relative.end());
            for (const double t : relative) {
                data.times.push_back(t);
                data.eventEnds.push_back(endHours);
            }
            data.windowEnds.push_back(endHours);
        }
    }
    for (auto& [version, data] : versionData) {
        report.versions.push_back(analyzeGroup(version, data, options));
    }
    return report;
}

std::string renderSrgmText(const SrgmReport& report) {
    std::string out;
    renderGroupText(report.fleet, out);
    for (const GroupReport& g : report.phones) renderGroupText(g, out);
    for (const GroupReport& g : report.versions) renderGroupText(g, out);
    return out;
}

std::string srgmToJson(const SrgmReport& report) {
    std::string json = "{\n\"holdout_split\": ";
    json += jsonNum(report.options.holdoutSplit);
    json += ",\n\"fleet\": " + groupJson(report.fleet);
    json += ",\n\"phones\": [";
    for (std::size_t i = 0; i < report.phones.size(); ++i) {
        if (i != 0) json += ", ";
        json += groupJson(report.phones[i]);
    }
    json += "],\n\"versions\": [";
    for (std::size_t i = 0; i < report.versions.size(); ++i) {
        if (i != 0) json += ", ";
        json += groupJson(report.versions[i]);
    }
    json += "]\n}\n";
    return json;
}

std::vector<std::string> exportSrgmCsv(const SrgmReport& report,
                                       const std::string& directory) {
    TextTable fitsTable{{"group", "model", "events", "a", "b", "c",
                         "log_likelihood", "aic", "bic", "ks_distance",
                         "converged", "selected"}};
    TextTable holdoutTable{{"group", "valid", "split", "prefix_events",
                            "tail_events", "best_model", "predicted_tail",
                            "actual_tail", "count_rel_error", "preq_nhpp",
                            "preq_hpp", "preq_gain_vs_hpp"}};
    addGroupRows(report.fleet, fitsTable, holdoutTable);
    for (const GroupReport& g : report.phones) {
        addGroupRows(g, fitsTable, holdoutTable);
    }
    for (const GroupReport& g : report.versions) {
        addGroupRows(g, fitsTable, holdoutTable);
    }
    return obs::writeDirectory(directory,
                               {{"srgm_fits.csv", fitsTable.renderCsv()},
                                {"srgm_holdout.csv", holdoutTable.renderCsv()}});
}

void publishSrgmMetrics(const SrgmReport& report, obs::MetricsRegistry& registry) {
    const GroupReport& fleet = report.fleet;
    registry.gauge("srgm", "fleet_events", "Fleet failure events fitted")
        .set(static_cast<double>(fleet.events));
    registry.gauge("srgm", "fleet_laplace_trend", "Fleet Laplace trend factor")
        .set(fleet.laplace);
    registry
        .gauge("srgm", "fleet_best_model",
               "AIC-selected model index (kAllModels order; -1 none)")
        .set(fleet.bestIndex < fleet.fits.size()
                 ? static_cast<double>(fleet.bestIndex)
                 : -1.0);
    if (fleet.bestIndex < fleet.fits.size()) {
        registry
            .gauge("srgm", "fleet_ks_distance",
                   "KS distance of the selected fleet fit")
            .set(fleet.fits[fleet.bestIndex].ksDistance);
    }
    if (fleet.holdout.valid) {
        registry
            .gauge("srgm", "holdout_count_rel_error",
                   "Relative error of the held-out tail count forecast")
            .set(fleet.holdout.countRelError);
        registry
            .gauge("srgm", "holdout_preq_gain_vs_hpp",
                   "Prequential log-likelihood gain of NHPP over HPP")
            .set(fleet.holdout.preqGainVsHpp);
    }
    for (const GroupReport& g : report.versions) {
        registry
            .gauge("srgm", "version_events", "version", g.name,
                   "Failure events fitted per firmware version")
            .set(static_cast<double>(g.events));
        registry
            .gauge("srgm", "version_laplace_trend", "version", g.name,
                   "Laplace trend factor per firmware version")
            .set(g.laplace);
    }
}

}  // namespace symfail::srgm
