#include "core/export.hpp"

#include "analysis/tables.hpp"
#include "obs/file.hpp"
#include "obs/trace.hpp"  // jsonNum, jsonString

namespace symfail::core {
namespace {

using analysis::TextTable;

std::string histogramCsv(const sim::Histogram& hist) {
    TextTable table{{"bin_lo", "bin_hi", "count"}};
    for (std::size_t i = 0; i < hist.binCount(); ++i) {
        if (hist.binValue(i) == 0) continue;
        table.addRow({TextTable::num(hist.binLo(i), 1), TextTable::num(hist.binHi(i), 1),
                      std::to_string(hist.binValue(i))});
    }
    return table.renderCsv();
}

std::string counterCsv(const sim::FreqCounter& counter, const char* keyName) {
    TextTable table{{keyName, "count", "fraction"}};
    for (const auto& [key, count] : counter.entries()) {
        table.addRow({std::to_string(key), std::to_string(count),
                      TextTable::num(counter.fraction(key), 4)});
    }
    return table.renderCsv();
}

TextTable crashFamilyTable(const FieldStudyResults& results) {
    TextTable table{{"family", "category", "type", "dumps", "share_percent",
                     "mtbf_hours", "phones", "distinct_signatures", "top_app",
                     "frames"}};
    for (const auto& row : results.crashFamilies.rows) {
        std::string frames;
        for (std::size_t i = 0; i < row.frames.size(); ++i) {
            if (i != 0) frames += ';';
            frames += row.frames[i];
        }
        table.addRow({row.familyId,
                      std::string{symbos::toString(row.panic.category)},
                      std::to_string(row.panic.type), std::to_string(row.dumps),
                      TextTable::num(row.sharePct), TextTable::num(row.mtbfHours, 1),
                      std::to_string(row.phones),
                      std::to_string(row.distinctSignatures), row.topApp, frames});
    }
    return table;
}

}  // namespace

std::vector<std::string> exportFieldCsv(const FieldStudyResults& results,
                                        const std::string& directory) {
    std::vector<obs::DirectoryFile> files;

    // Table 2.
    {
        TextTable table{{"category", "type", "count", "measured_percent",
                         "paper_percent"}};
        for (const auto& row : results.table2) {
            table.addRow({std::string{symbos::toString(row.panic.category)},
                          std::to_string(row.panic.type), std::to_string(row.count),
                          TextTable::num(row.percent), TextTable::num(row.paperPercent)});
        }
        files.push_back({"table2_panics.csv", table.renderCsv()});
    }
    // Figure 2 histograms.
    using analysis::ShutdownDiscriminator;
    files.push_back({"fig2_reboot_durations_full.csv",
                     histogramCsv(ShutdownDiscriminator::rebootDurationHistogram(
                         results.dataset, 40'000.0, 40))});
    files.push_back({"fig2_reboot_durations_zoom.csv",
                     histogramCsv(ShutdownDiscriminator::rebootDurationHistogram(
                         results.dataset, 500.0, 25))});
    // Figure 3.
    files.push_back(
        {"fig3_burst_lengths.csv", counterCsv(results.fig3BurstLengths, "burst_length")});
    // Figure 5.
    {
        TextTable table{{"category", "panics", "to_freeze", "to_self_shutdown",
                         "isolated"}};
        for (const auto& row : results.fig5Coalescence.byCategory) {
            table.addRow({std::string{symbos::toString(row.category)},
                          std::to_string(row.total), std::to_string(row.toFreeze),
                          std::to_string(row.toSelfShutdown),
                          std::to_string(row.isolated())});
        }
        files.push_back({"fig5_coalescence.csv", table.renderCsv()});
    }
    // Table 3.
    {
        TextTable table{{"category", "voice_call", "message", "unspecified"}};
        for (const auto& row : results.table3.rows) {
            table.addRow({std::string{symbos::toString(row.category)},
                          std::to_string(row.voiceCall), std::to_string(row.message),
                          std::to_string(row.unspecified)});
        }
        files.push_back({"table3_activity.csv", table.renderCsv()});
    }
    // Figure 6.
    files.push_back(
        {"fig6_running_apps.csv", counterCsv(results.fig6AppCounts, "apps_at_panic")});
    // Table 4.
    {
        TextTable table{{"category", "hl_outcome", "application", "count",
                         "percent_of_all_panics"}};
        for (const auto& row : results.table4) {
            const char* outcome = row.relation == analysis::PanicRelation::Freeze
                                      ? "freeze"
                                  : row.relation == analysis::PanicRelation::SelfShutdown
                                      ? "self-shutdown"
                                      : "none";
            table.addRow({std::string{symbos::toString(row.category)}, outcome,
                          row.app, std::to_string(row.count),
                          TextTable::num(row.percentOfAllPanics)});
        }
        files.push_back({"table4_apps.csv", table.renderCsv()});
    }
    // Crash families.
    files.push_back({"crash_families.csv", crashFamilyTable(results).renderCsv()});
    // Headline + evaluation.
    {
        TextTable table{{"metric", "measured", "paper"}};
        const auto& mtbf = results.mtbf;
        table.addRow({"observed_phone_hours", TextTable::num(mtbf.observedPhoneHours, 0),
                      "112680"});
        table.addRow({"freezes", std::to_string(mtbf.freezeCount), "360"});
        table.addRow({"self_shutdowns", std::to_string(mtbf.selfShutdownCount), "471"});
        table.addRow({"mtbf_freeze_hours", TextTable::num(mtbf.mtbfFreezeHours, 1),
                      "313"});
        table.addRow({"mtbf_self_shutdown_hours",
                      TextTable::num(mtbf.mtbfSelfShutdownHours, 1), "250"});
        const auto& eval = results.evaluation;
        table.addRow({"freeze_detection_precision",
                      TextTable::num(eval.freezeDetection.precision(), 4), ""});
        table.addRow({"freeze_detection_recall",
                      TextTable::num(eval.freezeDetection.recall(), 4), ""});
        table.addRow({"self_shutdown_precision",
                      TextTable::num(eval.selfShutdownDetection.precision(), 4), ""});
        table.addRow({"self_shutdown_recall",
                      TextTable::num(eval.selfShutdownDetection.recall(), 4), ""});
        table.addRow({"panic_capture_rate",
                      TextTable::num(eval.panicCaptureRate(), 4), ""});
        files.push_back({"headline.csv", table.renderCsv()});
    }
    return obs::writeDirectory(directory, files);
}

namespace {

// Minimal JSON building: quoted strings, arrays and objects assembled
// by hand (the output schema is fixed, a JSON library would be overkill).
using obs::jsonNum;
using obs::jsonString;

std::string crashFamiliesJsonObject(const FieldStudyResults& results) {
    std::string json = "{\"total_dumps\": " +
                       std::to_string(results.crashFamilies.totalDumps) +
                       ", \"families\": [";
    for (std::size_t i = 0; i < results.crashFamilies.rows.size(); ++i) {
        const auto& row = results.crashFamilies.rows[i];
        if (i != 0) json += ", ";
        json += "{\"id\": " + jsonString(row.familyId) +
                ", \"panic\": " + jsonString(symbos::toString(row.panic)) +
                ", \"dumps\": " + std::to_string(row.dumps) +
                ", \"share_percent\": " + jsonNum(row.sharePct) +
                ", \"mtbf_hours\": " + jsonNum(row.mtbfHours) +
                ", \"phones\": " + std::to_string(row.phones) +
                ", \"distinct_signatures\": " + std::to_string(row.distinctSignatures) +
                ", \"top_app\": " + jsonString(row.topApp) + ", \"frames\": [";
        for (std::size_t f = 0; f < row.frames.size(); ++f) {
            if (f != 0) json += ", ";
            json += jsonString(row.frames[f]);
        }
        json += "]}";
    }
    json += "]}";
    return json;
}

}  // namespace

std::string fieldResultsToJson(const FieldStudyResults& results) {
    std::string json = "{\n";

    // Headline.
    const auto& mtbf = results.mtbf;
    json += "  \"headline\": {";
    json += "\"observed_phone_hours\": " + jsonNum(mtbf.observedPhoneHours);
    json += ", \"freezes\": " + std::to_string(mtbf.freezeCount);
    json += ", \"self_shutdowns\": " + std::to_string(mtbf.selfShutdownCount);
    json += ", \"mtbf_freeze_hours\": " + jsonNum(mtbf.mtbfFreezeHours);
    json += ", \"mtbf_self_shutdown_hours\": " + jsonNum(mtbf.mtbfSelfShutdownHours);
    json += "},\n";

    // Table 2.
    json += "  \"table2\": [";
    for (std::size_t i = 0; i < results.table2.size(); ++i) {
        const auto& row = results.table2[i];
        if (i != 0) json += ", ";
        json += "{\"panic\": " + jsonString(symbos::toString(row.panic)) +
                ", \"count\": " + std::to_string(row.count) +
                ", \"percent\": " + jsonNum(row.percent) +
                ", \"paper_percent\": " + jsonNum(row.paperPercent) + "}";
    }
    json += "],\n";

    // Figure 3.
    json += "  \"fig3_burst_lengths\": {";
    bool first = true;
    for (const auto& [len, count] : results.fig3BurstLengths.entries()) {
        if (!first) json += ", ";
        first = false;
        json += jsonString(std::to_string(len)) + ": " + std::to_string(count);
    }
    json += "},\n";

    // Figure 5.
    const auto& coal = results.fig5Coalescence;
    json += "  \"fig5\": {\"related_fraction\": " + jsonNum(coal.relatedFraction()) +
            ", \"by_category\": [";
    for (std::size_t i = 0; i < coal.byCategory.size(); ++i) {
        const auto& row = coal.byCategory[i];
        if (i != 0) json += ", ";
        json += "{\"category\": " + jsonString(symbos::toString(row.category)) +
                ", \"total\": " + std::to_string(row.total) +
                ", \"to_freeze\": " + std::to_string(row.toFreeze) +
                ", \"to_self_shutdown\": " + std::to_string(row.toSelfShutdown) + "}";
    }
    json += "]},\n";

    // Table 3.
    json += "  \"table3\": {\"voice_percent\": " + jsonNum(results.table3.voicePercent) +
            ", \"message_percent\": " + jsonNum(results.table3.messagePercent) +
            ", \"unspecified_percent\": " + jsonNum(results.table3.unspecifiedPercent) +
            "},\n";

    // Figure 6.
    json += "  \"fig6_running_apps\": {";
    first = true;
    for (const auto& [n, count] : results.fig6AppCounts.entries()) {
        if (!first) json += ", ";
        first = false;
        json += jsonString(std::to_string(n)) + ": " + std::to_string(count);
    }
    json += "},\n";

    // Table 4 (top rows).
    json += "  \"table4\": [";
    for (std::size_t i = 0; i < results.table4.size(); ++i) {
        const auto& row = results.table4[i];
        if (i != 0) json += ", ";
        const char* outcome = row.relation == analysis::PanicRelation::Freeze
                                  ? "freeze"
                              : row.relation == analysis::PanicRelation::SelfShutdown
                                  ? "self-shutdown"
                                  : "none";
        json += "{\"category\": " + jsonString(symbos::toString(row.category)) +
                ", \"outcome\": " + jsonString(outcome) +
                ", \"app\": " + jsonString(row.app) +
                ", \"percent\": " + jsonNum(row.percentOfAllPanics) + "}";
    }
    json += "],\n";

    // Crash families.
    json += "  \"crash_families\": " + crashFamiliesJsonObject(results) + ",\n";

    // Evaluation.
    const auto& eval = results.evaluation;
    json += "  \"evaluation\": {";
    json += "\"freeze_precision\": " + jsonNum(eval.freezeDetection.precision());
    json += ", \"freeze_recall\": " + jsonNum(eval.freezeDetection.recall());
    json += ", \"self_shutdown_precision\": " +
            jsonNum(eval.selfShutdownDetection.precision());
    json += ", \"self_shutdown_recall\": " +
            jsonNum(eval.selfShutdownDetection.recall());
    json += ", \"panic_capture_rate\": " + jsonNum(eval.panicCaptureRate());
    json += ", \"output_failure_capture_rate\": " +
            jsonNum(eval.outputFailureCaptureRate());
    json += "}\n}\n";
    return json;
}

std::string crashFamiliesToJson(const FieldStudyResults& results) {
    return crashFamiliesJsonObject(results) + "\n";
}

std::vector<std::string> exportCrashCsv(const FieldStudyResults& results,
                                        const std::string& directory) {
    return obs::writeDirectory(
        directory, {{"crash_families.csv", crashFamilyTable(results).renderCsv()}});
}

}  // namespace symfail::core
