// CSV export of every regenerated artifact — for plotting the figures
// with external tooling.
#pragma once

#include <string>
#include <vector>

#include "core/study.hpp"

namespace symfail::core {

/// Writes the field-study artifacts (Table 2-4, Figures 2/3/5/6, headline
/// and evaluation numbers) as CSV files into `directory`, which is created
/// if missing.  Returns the paths written.  Throws std::runtime_error on
/// I/O failure.
std::vector<std::string> exportFieldCsv(const FieldStudyResults& results,
                                        const std::string& directory);

/// Serializes the complete field-study result bundle as a JSON document
/// (tables, figures, headline and evaluation metrics) for programmatic
/// consumption.
[[nodiscard]] std::string fieldResultsToJson(const FieldStudyResults& results);

/// Serializes just the crash-family report (the `crash_families` section
/// of `fieldResultsToJson`) as a standalone JSON document — the payload
/// of `symfail crash --json`.
[[nodiscard]] std::string crashFamiliesToJson(const FieldStudyResults& results);

/// Writes crash_families.csv (the same file `exportFieldCsv` emits) into
/// `directory`, created if missing.  Returns the paths written.  Throws
/// std::runtime_error on I/O failure.
std::vector<std::string> exportCrashCsv(const FieldStudyResults& results,
                                        const std::string& directory);

}  // namespace symfail::core
