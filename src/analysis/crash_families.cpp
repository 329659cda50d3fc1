#include "analysis/crash_families.hpp"

namespace symfail::analysis {

CrashFamilyReport buildCrashFamilyReport(const LogDataset& dataset) {
    crash::CrashClusterer clusterer;
    for (const auto& obs : dataset.dumps()) {
        clusterer.add(obs.phoneName, obs.dump);
    }

    CrashFamilyReport report;
    report.totalDumps = clusterer.totalDumps();
    const double observedHours = dataset.totalObservedTime().asHoursF();
    for (const auto& family : clusterer.families()) {
        CrashFamilyRow row;
        row.familyId = family.id;
        row.panic = family.signature.panic;
        row.dumps = family.dumps;
        row.sharePct = report.totalDumps == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(family.dumps) /
                                 static_cast<double>(report.totalDumps);
        row.mtbfHours = family.dumps == 0
                            ? 0.0
                            : observedHours / static_cast<double>(family.dumps);
        row.phones = family.perPhone.size();
        row.distinctSignatures = family.distinctSignatures;
        // Most frequent running app; ties resolve alphabetically (the map
        // iterates in sorted order).
        std::size_t best = 0;
        for (const auto& [app, count] : family.appCounts) {
            if (count > best) {
                best = count;
                row.topApp = app;
            }
        }
        row.frames = family.signature.frames;
        report.rows.push_back(std::move(row));
    }
    return report;
}

}  // namespace symfail::analysis
