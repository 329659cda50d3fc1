#include "logger/records.hpp"

#include <charconv>

#include "crash/dump.hpp"

namespace symfail::logger {
namespace {

using crash::parseField;

/// Appends an integer in decimal, as std::to_string would spell it.
void appendInt(std::string& out, std::int64_t value) {
    char digits[24];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

}  // namespace

std::string_view toString(BeatKind k) {
    switch (k) {
        case BeatKind::Alive: return "ALIVE";
        case BeatKind::Reboot: return "REBOOT";
        case BeatKind::Maoff: return "MAOFF";
        case BeatKind::Lowbt: return "LOWBT";
    }
    return "?";
}

std::optional<BeatKind> beatKindFromString(std::string_view s) {
    if (s == "ALIVE") return BeatKind::Alive;
    if (s == "REBOOT") return BeatKind::Reboot;
    if (s == "MAOFF") return BeatKind::Maoff;
    if (s == "LOWBT") return BeatKind::Lowbt;
    return std::nullopt;
}

std::string_view toString(ActivityContext c) {
    switch (c) {
        case ActivityContext::Unspecified: return "unspecified";
        case ActivityContext::VoiceCall: return "voice-call";
        case ActivityContext::Message: return "message";
    }
    return "?";
}

std::string_view toString(PriorShutdown p) {
    switch (p) {
        case PriorShutdown::None: return "NONE";
        case PriorShutdown::Freeze: return "FREEZE";
        case PriorShutdown::Reboot: return "REBOOT";
        case PriorShutdown::LowBattery: return "LOWBT";
        case PriorShutdown::ManualOff: return "MAOFF";
    }
    return "?";
}

void appendBeat(std::string& out, const BeatRecord& r) {
    out += "BEAT|";
    appendInt(out, r.time.micros());
    out += '|';
    out += toString(r.kind);
}

std::string serialize(const PanicRecord& r) {
    std::string apps;
    for (std::size_t i = 0; i < r.runningApps.size(); ++i) {
        if (i != 0) apps += ',';
        apps += r.runningApps[i];
    }
    return "PANIC|" + std::to_string(r.time.micros()) + "|" +
           std::string{symbos::toString(r.panic.category)} + "|" +
           std::to_string(r.panic.type) + "|" + apps + "|" +
           std::string{toString(r.activity)} + "|" + std::to_string(r.batteryPercent);
}

std::string serialize(const BootRecord& r) {
    return "BOOT|" + std::to_string(r.time.micros()) + "|" +
           std::string{toString(r.prior)} + "|" +
           std::to_string(r.lastBeatAt.micros());
}

std::string serialize(const UserReportRecord& r) {
    // The symptom is free text; '|' and newlines are stripped to keep the
    // line format parseable.
    std::string clean;
    for (const char c : r.symptom) {
        if (c != '|' && c != '\n') clean += c;
    }
    return "UREP|" + std::to_string(r.time.micros()) + "|" + clean;
}

std::string serialize(const MetaRecord& r) {
    std::string clean;
    for (const char c : r.symbianVersion) {
        if (c != '|' && c != '\n') clean += c;
    }
    return "META|" + std::to_string(r.time.micros()) + "|" + clean;
}

std::optional<BeatRecord> parseBeat(std::string_view line) {
    const auto fields = splitFields(line, '|');
    if (fields.size() != 3 || fields[0] != "BEAT") return std::nullopt;
    const auto us = parseField<std::int64_t>(fields[1]);
    const auto kind = beatKindFromString(fields[2]);
    if (!us || !kind) return std::nullopt;
    return BeatRecord{sim::TimePoint::fromMicros(*us), *kind};
}

namespace {

std::optional<LogFileEntry> parsePanicLine(const std::vector<std::string_view>& f) {
    if (f.size() != 7) return std::nullopt;
    const auto us = parseField<std::int64_t>(f[1]);
    const auto type = parseField<std::int64_t>(f[3]);
    const auto battery = parseField<std::int64_t>(f[6]);
    if (!us || !type || !battery) return std::nullopt;
    LogFileEntry entry;
    entry.type = LogFileEntry::Type::Panic;
    entry.panic.time = sim::TimePoint::fromMicros(*us);
    // An unrecognized category string (corrupted line) is a parse anomaly,
    // counted by the caller — never an exception.
    const auto category = symbos::parsePanicCategory(f[2]);
    if (!category) return std::nullopt;
    entry.panic.panic.category = *category;
    entry.panic.panic.type = static_cast<int>(*type);
    if (!f[4].empty()) {
        for (const auto app : splitFields(f[4], ',')) {
            entry.panic.runningApps.emplace_back(app);
        }
    }
    if (f[5] == "voice-call") {
        entry.panic.activity = ActivityContext::VoiceCall;
    } else if (f[5] == "message") {
        entry.panic.activity = ActivityContext::Message;
    } else if (f[5] == "unspecified") {
        entry.panic.activity = ActivityContext::Unspecified;
    } else {
        return std::nullopt;
    }
    entry.panic.batteryPercent = static_cast<int>(*battery);
    return entry;
}

std::optional<LogFileEntry> parseBootLine(const std::vector<std::string_view>& f) {
    if (f.size() != 4) return std::nullopt;
    const auto us = parseField<std::int64_t>(f[1]);
    const auto lastBeat = parseField<std::int64_t>(f[3]);
    if (!us || !lastBeat) return std::nullopt;
    LogFileEntry entry;
    entry.type = LogFileEntry::Type::Boot;
    entry.boot.time = sim::TimePoint::fromMicros(*us);
    if (f[2] == "NONE") {
        entry.boot.prior = PriorShutdown::None;
    } else if (f[2] == "FREEZE") {
        entry.boot.prior = PriorShutdown::Freeze;
    } else if (f[2] == "REBOOT") {
        entry.boot.prior = PriorShutdown::Reboot;
    } else if (f[2] == "LOWBT") {
        entry.boot.prior = PriorShutdown::LowBattery;
    } else if (f[2] == "MAOFF") {
        entry.boot.prior = PriorShutdown::ManualOff;
    } else {
        return std::nullopt;
    }
    entry.boot.lastBeatAt = sim::TimePoint::fromMicros(*lastBeat);
    return entry;
}

/// Parses one non-empty Log File line; nullopt when it is malformed.
std::optional<LogFileEntry> parseLogLine(std::string_view line) {
    const auto fields = splitFields(line, '|');
    if (fields[0] == "PANIC") return parsePanicLine(fields);
    if (fields[0] == "DUMP") {
        auto dump = crash::parseDumpFields(fields);
        if (!dump) return std::nullopt;
        LogFileEntry e;
        e.type = LogFileEntry::Type::Dump;
        e.dump = std::move(*dump);
        return e;
    }
    if (fields[0] == "BOOT") return parseBootLine(fields);
    if (fields[0] == "UREP") {
        if (fields.size() != 3) return std::nullopt;
        const auto us = parseField<std::int64_t>(fields[1]);
        if (!us) return std::nullopt;
        LogFileEntry rep;
        rep.type = LogFileEntry::Type::UserReport;
        rep.userReport.time = sim::TimePoint::fromMicros(*us);
        rep.userReport.symptom = std::string{fields[2]};
        return rep;
    }
    if (fields[0] == "META") {
        if (fields.size() != 3) return std::nullopt;
        const auto us = parseField<std::int64_t>(fields[1]);
        if (!us) return std::nullopt;
        LogFileEntry meta;
        meta.type = LogFileEntry::Type::Meta;
        meta.meta.time = sim::TimePoint::fromMicros(*us);
        meta.meta.symbianVersion = std::string{fields[2]};
        return meta;
    }
    return std::nullopt;
}

/// Calls `visit` with each non-empty line of `content`.
template <typename Visit>
void forEachLine(std::string_view content, Visit&& visit) {
    std::size_t start = 0;
    while (start < content.size()) {
        std::size_t nl = content.find('\n', start);
        if (nl == std::string_view::npos) nl = content.size();
        const std::string_view line = content.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty()) visit(line);
    }
}

}  // namespace

std::vector<LogFileEntry> parseLogFile(std::string_view content, std::size_t* malformed) {
    std::vector<LogFileEntry> out;
    std::size_t bad = 0;
    forEachLine(content, [&](std::string_view line) {
        if (auto entry = parseLogLine(line)) {
            out.push_back(std::move(*entry));
        } else {
            ++bad;
        }
    });
    if (malformed != nullptr) *malformed = bad;
    return out;
}

std::size_t countLogRecords(std::string_view content) {
    std::size_t count = 0;
    forEachLine(content, [&](std::string_view line) {
        if (parseLogLine(line)) ++count;
    });
    return count;
}

std::string_view recordTag(std::string_view line) {
    const auto bar = line.find('|');
    return bar == std::string_view::npos ? line : line.substr(0, bar);
}

}  // namespace symfail::logger
