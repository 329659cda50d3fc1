#include "analysis/tables.hpp"

#include <algorithm>
#include <cstdio>

namespace symfail::analysis {

TextTable::TextTable(std::vector<std::string> header) : header_{std::move(header)} {}

void TextTable::addRow(std::vector<std::string> cells) {
    cells.resize(header_.size());
    rows_.push_back(std::move(cells));
}

std::string TextTable::num(double value, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, value);
    return buf;
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t i = 0; i < header_.size(); ++i) {
        widths[i] = header_[i].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            widths[i] = std::max(widths[i], row[i].size());
        }
    }

    auto renderRow = [&](const std::vector<std::string>& cells) {
        std::string line;
        for (std::size_t i = 0; i < header_.size(); ++i) {
            const std::string& cell = i < cells.size() ? cells[i] : header_[i];
            if (i == 0) {
                line += cell;
                line.append(widths[i] - cell.size(), ' ');
            } else {
                line += "  ";
                line.append(widths[i] - cell.size(), ' ');
                line += cell;
            }
        }
        line += '\n';
        return line;
    };

    std::string out = renderRow(header_);
    std::size_t totalWidth = 0;
    for (const auto w : widths) totalWidth += w;
    totalWidth += 2 * (header_.size() - 1);
    out.append(totalWidth, '-');
    out += '\n';
    for (const auto& row : rows_) out += renderRow(row);
    return out;
}

std::string TextTable::renderCsv() const {
    auto escape = [](const std::string& cell) {
        if (cell.find(',') == std::string::npos &&
            cell.find('"') == std::string::npos) {
            return cell;
        }
        std::string quoted = "\"";
        for (const char c : cell) {
            if (c == '"') quoted += '"';
            quoted += c;
        }
        quoted += '"';
        return quoted;
    };
    std::string out;
    for (std::size_t i = 0; i < header_.size(); ++i) {
        if (i != 0) out += ',';
        out += escape(header_[i]);
    }
    out += '\n';
    for (const auto& row : rows_) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i != 0) out += ',';
            out += escape(row[i]);
        }
        out += '\n';
    }
    return out;
}

}  // namespace symfail::analysis
