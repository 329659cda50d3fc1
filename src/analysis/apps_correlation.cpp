#include "analysis/apps_correlation.hpp"

#include <algorithm>
#include <map>
#include <tuple>

namespace symfail::analysis {

sim::FreqCounter runningAppCounts(const LogDataset& dataset) {
    sim::FreqCounter counts;
    for (const auto& p : dataset.panics()) {
        counts.add(static_cast<std::int64_t>(p.record.runningApps.size()));
    }
    return counts;
}

std::vector<AppCorrelationRow> appCorrelation(const CoalescenceResult& result,
                                              double minPercent) {
    using Key = std::tuple<symbos::PanicCategory, PanicRelation, std::string>;
    std::map<Key, std::size_t> counts;
    for (const auto& related : result.panics) {
        for (const auto& app : related.panic.record.runningApps) {
            ++counts[Key{related.panic.record.panic.category, related.relation, app}];
        }
    }
    const double total = static_cast<double>(result.panics.size());
    std::vector<AppCorrelationRow> rows;
    for (const auto& [key, count] : counts) {
        AppCorrelationRow row;
        row.category = std::get<0>(key);
        row.relation = std::get<1>(key);
        row.app = std::get<2>(key);
        row.count = count;
        row.percentOfAllPanics =
            total > 0.0 ? 100.0 * static_cast<double>(count) / total : 0.0;
        if (row.percentOfAllPanics >= minPercent) rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const AppCorrelationRow& a, const AppCorrelationRow& b) {
                  return a.percentOfAllPanics > b.percentOfAllPanics;
              });
    return rows;
}

std::vector<AppTotalRow> appTotals(const LogDataset& dataset) {
    std::map<std::string, std::size_t> counts;
    for (const auto& p : dataset.panics()) {
        for (const auto& app : p.record.runningApps) ++counts[app];
    }
    const double total = static_cast<double>(dataset.panics().size());
    std::vector<AppTotalRow> rows;
    for (const auto& [app, count] : counts) {
        AppTotalRow row;
        row.app = app;
        row.percentOfAllPanics =
            total > 0.0 ? 100.0 * static_cast<double>(count) / total : 0.0;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const AppTotalRow& a, const AppTotalRow& b) {
        return a.percentOfAllPanics > b.percentOfAllPanics;
    });
    return rows;
}

}  // namespace symfail::analysis
