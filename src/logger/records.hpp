// Log record formats.
//
// The logger writes line-oriented text records to flash files; the
// analysis pipeline parses them back.  Keeping the wire format textual
// (rather than handing structs around) forces the analysis to work from
// what a real deployment would have: serialized logs, including torn
// lines after battery pulls.
//
// Files:
//   beats     — heartbeat events: ALIVE / REBOOT / MAOFF / LOWBT
//   logfile   — the consolidated Log File written by the Panic Detector:
//               PANIC records (with running apps, activity context and
//               battery), DUMP records (the structured crash dump captured
//               alongside each panic; crash/dump.hpp) and BOOT records
//               (with the prior-shutdown classification and the last
//               heartbeat timestamp)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crash/dump.hpp"
#include "crash/fields.hpp"
#include "simkernel/time.hpp"
#include "symbos/panic.hpp"

namespace symfail::logger {

inline constexpr std::string_view kBeatsFile = "beats";
inline constexpr std::string_view kLogFile = "logfile";

/// Heartbeat event kinds (Section 5.2 of the paper).
enum class BeatKind : std::uint8_t {
    Alive,   ///< Normal operation.
    Reboot,  ///< Graceful shutdown (user- or kernel-initiated).
    Maoff,   ///< The user turned the logger application off.
    Lowbt,   ///< Shutdown caused by a drained battery.
};

[[nodiscard]] std::string_view toString(BeatKind k);
[[nodiscard]] std::optional<BeatKind> beatKindFromString(std::string_view s);

struct BeatRecord {
    sim::TimePoint time;
    BeatKind kind{BeatKind::Alive};
};

/// Activity context attached to a panic record (Table 3's rows).
enum class ActivityContext : std::uint8_t { Unspecified, VoiceCall, Message };

[[nodiscard]] std::string_view toString(ActivityContext c);

/// Consolidated panic record (one per detected panic).
struct PanicRecord {
    sim::TimePoint time;
    symbos::PanicId panic;
    std::vector<std::string> runningApps;
    ActivityContext activity{ActivityContext::Unspecified};
    int batteryPercent{0};
};

/// Boot-time classification of the previous shutdown, derived from the
/// last heartbeat event exactly as Section 5.2 describes: a final ALIVE
/// means the battery was pulled (a freeze); REBOOT/LOWBT/MAOFF mean a
/// graceful shutdown of the corresponding kind.
enum class PriorShutdown : std::uint8_t {
    None,      ///< First boot: no beats file yet.
    Freeze,    ///< Last event ALIVE -> battery pull -> freeze.
    Reboot,    ///< Last event REBOOT (user or kernel; discriminated offline).
    LowBattery,
    ManualOff, ///< Logger was off; no inference possible.
};

[[nodiscard]] std::string_view toString(PriorShutdown p);

/// Boot record written when the logger starts.
struct BootRecord {
    sim::TimePoint time;
    PriorShutdown prior{PriorShutdown::None};
    /// Timestamp of the last heartbeat event before this boot; origin()
    /// when prior == None.
    sim::TimePoint lastBeatAt;
};

/// A user-filed output-failure report (the paper's future-work extension:
/// value failures are invisible to automated detection, so the logger
/// collects them from the user — unreliably).
struct UserReportRecord {
    sim::TimePoint time;
    std::string symptom;
};

/// Device metadata, written once when the logger first starts on a phone
/// (model/OS-version information the study's Section 6 reports).
struct MetaRecord {
    sim::TimePoint time;
    std::string symbianVersion;
};

/// One parsed Log File line.
struct LogFileEntry {
    enum class Type : std::uint8_t { Panic, Boot, UserReport, Meta, Dump };
    Type type{Type::Boot};
    PanicRecord panic;            ///< valid when type == Panic
    BootRecord boot;              ///< valid when type == Boot
    UserReportRecord userReport;  ///< valid when type == UserReport
    MetaRecord meta;              ///< valid when type == Meta
    crash::CrashDump dump;        ///< valid when type == Dump
};

// -- Serialization ------------------------------------------------------------

/// Appends a beats line to a caller's buffer: the heartbeat formats every
/// beat into one reused string.
void appendBeat(std::string& out, const BeatRecord& r);

[[nodiscard]] inline std::string serialize(const BeatRecord& r) {
    std::string out;
    appendBeat(out, r);
    return out;
}
[[nodiscard]] std::string serialize(const PanicRecord& r);
[[nodiscard]] std::string serialize(const BootRecord& r);
[[nodiscard]] std::string serialize(const UserReportRecord& r);
[[nodiscard]] std::string serialize(const MetaRecord& r);

// -- Parsing --------------------------------------------------------------------

/// Parses a beats line; nullopt on malformed input (torn writes).
[[nodiscard]] std::optional<BeatRecord> parseBeat(std::string_view line);

/// Parses the whole consolidated Log File; malformed lines are skipped and
/// counted in `malformed` when provided.
[[nodiscard]] std::vector<LogFileEntry> parseLogFile(std::string_view content,
                                                     std::size_t* malformed = nullptr);
/// parseLogFile(content).size(), without keeping the entries.
[[nodiscard]] std::size_t countLogRecords(std::string_view content);

using crash::splitFields;

/// Leading record tag of a serialized line ("PANIC", "BOOT", "DUMP", …):
/// everything before the first '|'.  Used by provenance tracking to label
/// lineages without parsing the full record.
[[nodiscard]] std::string_view recordTag(std::string_view line);

}  // namespace symfail::logger
