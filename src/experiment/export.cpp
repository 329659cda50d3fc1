#include "experiment/export.hpp"

#include "analysis/tables.hpp"
#include "obs/file.hpp"
#include "obs/trace.hpp"  // appendJsonEscaped, jsonNum

namespace symfail::experiment {
namespace {

using obs::jsonNum;

/// Significant digits of every number written: stable across platforms
/// for the doubles this pipeline produces.
constexpr int kDigits = 10;

void appendKey(std::string& out, std::string_view key) {
    out += '"';
    obs::appendJsonEscaped(out, key);
    out += "\":";
}

void appendCellParams(std::string& out, const Cell& cell) {
    out += '{';
    for (const Axis& axis : axes()) {
        const double value = axis.get(cell);
        if (axis.omitWhenZero && value == 0.0) continue;
        if (out.back() != '{') out += ',';
        appendKey(out, axis.key);
        out += jsonNum(value, kDigits);
    }
    out += '}';
}

}  // namespace

std::string sweepToJson(const Summary& summary) {
    std::string out = "{\"sweep\":{";
    appendKey(out, "master_seed");
    out += std::to_string(summary.masterSeed);
    out += ',';
    appendKey(out, "trials_per_cell");
    out += std::to_string(summary.trialsPerCell);
    out += ',';
    appendKey(out, "failed_trials");
    out += std::to_string(summary.failedTrials());
    out += ',';
    appendKey(out, "cells");
    out += '[';
    const auto trials = static_cast<std::size_t>(summary.trialsPerCell);
    for (std::size_t c = 0; c < summary.cells.size(); ++c) {
        const CellSummary& cell = summary.cells[c];
        if (c != 0) out += ',';
        out += "{";
        appendKey(out, "label");
        out += '"';
        obs::appendJsonEscaped(out, cell.cell.label());
        out += "\",";
        appendKey(out, "params");
        appendCellParams(out, cell.cell);
        out += ',';
        appendKey(out, "failed_trials");
        out += std::to_string(cell.failedCount);
        out += ',';
        appendKey(out, "trials");
        out += '[';
        for (std::size_t t = 0; t < trials; ++t) {
            const TrialResult& trial = summary.trials[c * trials + t];
            if (t != 0) out += ',';
            out += "{";
            appendKey(out, "trial");
            out += std::to_string(t);
            out += ',';
            appendKey(out, "seed");
            out += std::to_string(trial.seed);
            out += ',';
            if (trial.ok) {
                appendKey(out, "metrics");
                out += '{';
                for (std::size_t m = 0; m < trial.metrics.size(); ++m) {
                    if (m != 0) out += ',';
                    appendKey(out, trial.metrics[m].first);
                    out += jsonNum(trial.metrics[m].second, kDigits);
                }
                out += '}';
            } else {
                appendKey(out, "error");
                out += '"';
                obs::appendJsonEscaped(out, trial.error);
                out += '"';
            }
            out += '}';
        }
        out += "],";
        appendKey(out, "metrics");
        out += '{';
        for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
            const auto& [name, stats] = cell.metrics[m];
            if (m != 0) out += ',';
            appendKey(out, name);
            out += '{';
            appendKey(out, "n");
            out += std::to_string(stats.n);
            out += ',';
            appendKey(out, "mean");
            out += jsonNum(stats.mean, kDigits);
            out += ',';
            appendKey(out, "stddev");
            out += jsonNum(stats.stddev, kDigits);
            out += ',';
            appendKey(out, "min");
            out += jsonNum(stats.min, kDigits);
            out += ',';
            appendKey(out, "max");
            out += jsonNum(stats.max, kDigits);
            out += ',';
            appendKey(out, "ci95");
            out += '[' + jsonNum(stats.ciLow, kDigits) + ',' +
                   jsonNum(stats.ciHigh, kDigits) + "],";
            appendKey(out, "bootstrap95");
            out += '[' + jsonNum(stats.bootstrapLow, kDigits) + ',' +
                   jsonNum(stats.bootstrapHigh, kDigits) + ']';
            out += '}';
        }
        out += "}}";
    }
    out += "]}}\n";
    return out;
}

std::vector<std::string> exportSweepCsv(const Summary& summary,
                                        const std::string& directory) {
    std::vector<obs::DirectoryFile> files;
    {
        analysis::TextTable table{{"cell", "metric", "n", "mean", "stddev", "min",
                                   "max", "ci95_lo", "ci95_hi", "bootstrap95_lo",
                                   "bootstrap95_hi"}};
        for (const auto& cell : summary.cells) {
            const std::string label = cell.cell.label();
            for (const auto& [name, stats] : cell.metrics) {
                table.addRow({label, name, std::to_string(stats.n),
                              jsonNum(stats.mean, kDigits),
                              jsonNum(stats.stddev, kDigits), jsonNum(stats.min, kDigits),
                              jsonNum(stats.max, kDigits), jsonNum(stats.ciLow, kDigits),
                              jsonNum(stats.ciHigh, kDigits),
                              jsonNum(stats.bootstrapLow, kDigits),
                              jsonNum(stats.bootstrapHigh, kDigits)});
            }
        }
        files.push_back({"sweep_summary.csv", table.renderCsv()});
    }
    {
        analysis::TextTable table{{"cell", "trial", "seed", "status", "metric",
                                   "value"}};
        const auto trials = static_cast<std::size_t>(summary.trialsPerCell);
        for (std::size_t c = 0; c < summary.cells.size(); ++c) {
            const std::string label = summary.cells[c].cell.label();
            for (std::size_t t = 0; t < trials; ++t) {
                const TrialResult& trial = summary.trials[c * trials + t];
                if (!trial.ok) {
                    table.addRow({label, std::to_string(t), std::to_string(trial.seed),
                                  "error", trial.error, ""});
                    continue;
                }
                for (const auto& [name, value] : trial.metrics) {
                    table.addRow({label, std::to_string(t), std::to_string(trial.seed),
                                  "ok", name, jsonNum(value, kDigits)});
                }
            }
        }
        files.push_back({"sweep_trials.csv", table.renderCsv()});
    }
    return obs::writeDirectory(directory, files);
}

std::string renderSweepReport(const Summary& summary) {
    std::string out = "== Sweep summary ==\n";
    out += "master seed " + std::to_string(summary.masterSeed) + ", " +
           std::to_string(summary.trialsPerCell) + " trial(s) per cell, " +
           std::to_string(summary.cells.size()) + " cell(s)";
    const std::size_t failed = summary.failedTrials();
    if (failed > 0) out += ", " + std::to_string(failed) + " FAILED trial(s)";
    out += "\n\n";
    for (const auto& cell : summary.cells) {
        out += "-- " + cell.cell.label() + " --\n";
        analysis::TextTable table{
            {"metric", "mean", "stddev", "ci95_lo", "ci95_hi", "boot_lo", "boot_hi"}};
        for (const auto& [name, stats] : cell.metrics) {
            table.addRow({name, analysis::TextTable::num(stats.mean, 3),
                          analysis::TextTable::num(stats.stddev, 3),
                          analysis::TextTable::num(stats.ciLow, 3),
                          analysis::TextTable::num(stats.ciHigh, 3),
                          analysis::TextTable::num(stats.bootstrapLow, 3),
                          analysis::TextTable::num(stats.bootstrapHigh, 3)});
        }
        out += table.render();
        for (const auto& error : cell.errors) {
            out += "  !! " + error + "\n";
        }
        out += "\n";
    }
    return out;
}

}  // namespace symfail::experiment
