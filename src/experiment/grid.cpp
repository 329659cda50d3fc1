#include "experiment/grid.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace symfail::experiment {
namespace {

/// Trims trailing zeros off a %.6f rendering so labels stay compact
/// ("5", "2.5") while remaining unambiguous.
std::string compactNum(double value) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    std::string s{buf};
    s.erase(s.find_last_not_of('0') + 1);
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
}

/// The characters a number token may hold.
constexpr std::string_view kNumberChars = "0123456789+-.eE";

/// Minimal JSON reader for the grid schema: one object mapping string
/// keys to a number or a flat array of numbers.  Anything else is a
/// schema error with the offending byte offset.
class GridJsonReader {
public:
    explicit GridJsonReader(const std::string& text) : text_{text} {}

    /// Parses the whole document into (key, values) pairs.
    std::vector<std::pair<std::string, std::vector<double>>> read() {
        std::vector<std::pair<std::string, std::vector<double>>> entries;
        skipWs();
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
        } else {
            while (true) {
                skipWs();
                std::string key = readString();
                skipWs();
                expect(':');
                skipWs();
                std::vector<double> values;
                if (peek() == '[') {
                    ++pos_;
                    skipWs();
                    if (peek() == ']') {
                        ++pos_;
                    } else {
                        while (true) {
                            skipWs();
                            values.push_back(readNumber());
                            skipWs();
                            if (peek() == ',') {
                                ++pos_;
                                continue;
                            }
                            expect(']');
                            break;
                        }
                    }
                } else {
                    values.push_back(readNumber());
                }
                entries.emplace_back(std::move(key), std::move(values));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                break;
            }
        }
        skipWs();
        if (pos_ != text_.size()) fail("trailing content after grid object");
        return entries;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("grid JSON at byte " + std::to_string(pos_) + ": " +
                                 what);
    }

    [[nodiscard]] char peek() const {
        if (pos_ >= text_.size()) return '\0';
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string{"expected '"} + c + "'");
        ++pos_;
    }

    void skipWs() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
            ++pos_;
        }
    }

    std::string readString() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c == '\\') fail("escapes are not supported in grid keys");
            out.push_back(c);
        }
    }

    double readNumber() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               kNumberChars.find(text_[pos_]) != std::string_view::npos) {
            ++pos_;
        }
        if (pos_ == start) fail("expected a number");
        const std::string token = text_.substr(start, pos_ - start);
        const auto value = parseNumber(token);
        if (!value) {
            pos_ = start;
            fail("malformed number '" + token + "'");
        }
        return *value;
    }

    const std::string& text_;
    std::size_t pos_{0};
};

/// A bound or value as error messages show it ("100000", "0.05").
std::string messageNum(double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    return buf;
}

// Every campaign axis, in canonical order.
constexpr Bounds kPercent{0.0, 100.0};
constexpr Bounds kSeconds{1.0, 86'400.0};
constexpr Bounds kPerKHour{0.0, 100'000.0};
constexpr Axis kAxes[] = {
    // key, flag, bounds, omitWhenZero, member
    {"phones", "--phones", {1.0, 100'000.0, true}, false, &Cell::phones},
    {"days", "--days", {1.0, 36'500.0, true}, false, &Cell::days},
    {"loss_pct", "--loss", kPercent, false, &Cell::lossPct},
    {"dup_pct", "--dup", kPercent, false, &Cell::dupPct},
    {"reorder_pct", "--reorder", kPercent, false, &Cell::reorderPct},
    {"outage_day", "--outage-day", {-1.0, 36'500.0, true}, false, &Cell::outageDay},
    {"outage_days", "--outage-days", {0.0, 36'500.0, true}, false, &Cell::outageDays},
    {"heartbeat_seconds", "", kSeconds, false, &Cell::heartbeatSeconds},
    {"self_shutdown_threshold_seconds", "", kSeconds, false,
     &Cell::selfShutdownThresholdSeconds},
    {"flash_fault_per_khour", "--flash-fault", kPerKHour, true,
     &Cell::flashFaultPerKHour},
    {"mem_pressure_per_khour", "--mem-pressure", kPerKHour, true,
     &Cell::memPressurePerKHour},
    {"clock_skew_ppm", "--clock-skew", {-10'000.0, 10'000.0}, true, &Cell::clockSkewPpm},
    {"radio_fault_per_khour", "--radio-fault", kPerKHour, true,
     &Cell::radioFaultPerKHour},
};

}  // namespace

double Bounds::check(std::string_view name, double value) const {
    if (!(value >= lo && value <= hi)) {
        throw std::runtime_error(std::string{name} + " must be in [" + messageNum(lo) +
                                 ", " + messageNum(hi) + "], got " + messageNum(value));
    }
    if (integer && value != std::floor(value)) {
        throw std::runtime_error(std::string{name} + " must be an integer, got " +
                                 messageNum(value));
    }
    return value;
}

std::optional<double> parseNumber(std::string_view token) {
    if (token.empty() || token.find_first_not_of(kNumberChars) != token.npos) {
        return std::nullopt;
    }
    try {
        std::size_t consumed = 0;
        const double value = std::stod(std::string{token}, &consumed);
        if (consumed == token.size() && std::isfinite(value)) return value;
    } catch (const std::exception&) {
    }
    return std::nullopt;
}

double Axis::get(const Cell& cell) const {
    return std::visit([&](auto field) { return static_cast<double>(cell.*field); },
                      member);
}

void Axis::set(Cell& cell, double value) const {
    std::visit(
        [&](auto field) {
            using Field = std::remove_reference_t<decltype(cell.*field)>;
            cell.*field = static_cast<Field>(value);
        },
        member);
}

std::span<const Axis> axes() { return kAxes; }

const Axis& axis(std::string_view key) {
    for (const Axis& entry : kAxes) {
        if (entry.key == key) return entry;
    }
    throw std::runtime_error("unknown grid axis '" + std::string{key} + "'");
}

std::string Cell::label() const {
    std::string out = "phones=" + std::to_string(phones) +
                      " days=" + std::to_string(days) +
                      " loss=" + compactNum(lossPct) + " dup=" + compactNum(dupPct) +
                      " reorder=" + compactNum(reorderPct);
    if (outageDay >= 0) {
        out += " outage=" + std::to_string(outageDay) + "+" +
               std::to_string(outageDays) + "d";
    }
    out += " hb=" + compactNum(heartbeatSeconds) +
           " thresh=" + compactNum(selfShutdownThresholdSeconds);
    if (flashFaultPerKHour > 0.0) out += " flash=" + compactNum(flashFaultPerKHour);
    if (memPressurePerKHour > 0.0) out += " mem=" + compactNum(memPressurePerKHour);
    if (clockSkewPpm != 0.0) out += " skew=" + compactNum(clockSkewPpm);
    if (radioFaultPerKHour > 0.0) out += " radio=" + compactNum(radioFaultPerKHour);
    return out;
}

core::StudyConfig Cell::toStudyConfig(std::uint64_t seed) const {
    core::StudyConfig config;
    auto& fleet = config.fleetConfig;
    fleet.phoneCount = phones;
    fleet::setCampaignDays(fleet, days);
    fleet.seed = seed;
    fleet.loggerConfig.heartbeatPeriod = sim::Duration::fromSecondsF(heartbeatSeconds);
    auto& transport = fleet.transport;
    transport.dataChannel.lossProb = lossPct / 100.0;
    transport.dataChannel.dupProb = dupPct / 100.0;
    transport.dataChannel.reorderProb = reorderPct / 100.0;
    transport.ackChannel.lossProb = lossPct / 100.0;
    if (outageDay >= 0) {
        const auto start =
            sim::TimePoint::origin() + sim::Duration::days(outageDay);
        const transport::OutageWindow window{start,
                                             start + sim::Duration::days(outageDays)};
        transport.dataChannel.outages.push_back(window);
        transport.ackChannel.outages.push_back(window);
    }
    config.selfShutdownThresholdSeconds = selfShutdownThresholdSeconds;
    auto& osfault = fleet.osfault;
    osfault.flash.faultsPerKHour = flashFaultPerKHour;
    osfault.memory.episodesPerKHour = memPressurePerKHour;
    osfault.clock.skewPpm = clockSkewPpm;
    osfault.radio.faultsPerKHour = radioFaultPerKHour;
    return config;
}

Grid Grid::single(const Cell& cell) {
    Grid grid;
    grid.cells_.push_back(cell);
    return grid;
}

Grid Grid::parse(const std::string& json, const Cell& defaults) {
    const auto table = axes();
    // One value list per axis; an axis the file leaves out keeps its
    // default, and a key may appear only once.
    std::vector<std::vector<double>> values(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) values[i] = {table[i].get(defaults)};
    std::vector<bool> seen(table.size(), false);
    for (auto& [key, list] : GridJsonReader{json}.read()) {
        const Axis& entry = axis(key);
        const auto index = static_cast<std::size_t>(&entry - table.data());
        const std::string name = "grid axis '" + key + "'";
        if (seen[index]) throw std::runtime_error(name + " appears more than once");
        seen[index] = true;
        if (list.empty()) throw std::runtime_error(name + " has an empty value list");
        for (const double value : list) entry.bounds.check(name, value);
        values[index] = std::move(list);
    }
    // The Cartesian product as an odometer: the last axis turns fastest.
    Grid grid;
    std::vector<std::size_t> at(table.size(), 0);
    while (true) {
        Cell cell = defaults;
        for (std::size_t i = 0; i < table.size(); ++i) {
            table[i].set(cell, values[i][at[i]]);
        }
        grid.cells_.push_back(cell);
        std::size_t i = table.size();
        while (i > 0 && ++at[i - 1] == values[i - 1].size()) at[--i] = 0;
        if (i == 0) return grid;
    }
}

Grid Grid::load(const std::string& path, const Cell& defaults) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error("cannot read grid file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str(), defaults);
}

}  // namespace symfail::experiment
