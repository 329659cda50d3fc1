// Plain-text table rendering for benches and examples.
#pragma once

#include <string>
#include <vector>

namespace symfail::analysis {

/// Minimal fixed-width table builder with left-aligned first column and
/// right-aligned numeric columns.
class TextTable {
public:
    explicit TextTable(std::vector<std::string> header);

    void addRow(std::vector<std::string> cells);

    [[nodiscard]] std::string render() const;
    /// Comma-separated export (quotes cells containing commas).
    [[nodiscard]] std::string renderCsv() const;

    /// Formats a double with the given precision.
    [[nodiscard]] static std::string num(double value, int precision = 2);

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace symfail::analysis
