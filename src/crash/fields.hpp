// Field codecs shared by the line formats: the crash dump, the Log File
// records, the D_EXC log and the transport frame header.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

namespace symfail::crash {

/// Splits `line` on `delim`; n delimiters yield n + 1 fields.
[[nodiscard]] inline std::vector<std::string_view> splitFields(std::string_view line,
                                                               char delim) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = line.find(delim, start);
        if (pos == std::string_view::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, pos - start));
        start = pos + 1;
    }
}

/// Reads the whole of `field` as an integer of type T in `base`; nullopt
/// when it is empty, has any other character or does not fit.
template <typename T>
[[nodiscard]] std::optional<T> parseField(std::string_view field, int base = 10) {
    T value{};
    const char* end = field.data() + field.size();
    const auto [ptr, ec] = std::from_chars(field.data(), end, value, base);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

}  // namespace symfail::crash
