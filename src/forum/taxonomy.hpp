// Failure taxonomy of the web-forum study (Section 4).
//
// Failure types follow the dependability taxonomy the paper cites
// (halting, silent, erratic, value, omission failures); recovery actions
// are the user-initiated actions forum posters describe; severity is
// defined from the user's perspective by how hard the recovery is.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace symfail::forum {

/// High-level failure manifestations.
enum class FailureType : std::uint8_t {
    Freeze,            ///< Halting failure: output constant, no input response.
    SelfShutdown,      ///< Silent failure: device shuts down, no service.
    UnstableBehavior,  ///< Erratic failure: backlight flashing, self-activation.
    OutputFailure,     ///< Value failure: wrong output (volume, indicators…).
    InputFailure,      ///< Omission failure: inputs have no effect.
};
inline constexpr std::size_t kFailureTypeCount = 5;

/// User-initiated recovery.
enum class RecoveryAction : std::uint8_t {
    Unreported,
    RepeatAction,
    Wait,
    Reboot,
    RemoveBattery,
    ServicePhone,
};
inline constexpr std::size_t kRecoveryActionCount = 6;

/// Failure severity from the recovery difficulty (Section 4).
enum class Severity : std::uint8_t { Low, Medium, High, Unknown };

[[nodiscard]] std::string_view toString(FailureType t);
[[nodiscard]] std::string_view toString(RecoveryAction r);

/// The paper's severity rule: service -> High; reboot/battery -> Medium;
/// repeat/wait -> Low; unreported -> Unknown.
[[nodiscard]] Severity severityOf(RecoveryAction r);

/// Activity the user performed when the failure struck (the forum study
/// correlates 13% with voice calls, 5.4% with messaging, 3.6% with
/// Bluetooth, 2.4% with image handling).
enum class ReportedActivity : std::uint8_t {
    Unspecified,
    VoiceCall,
    TextMessage,
    Bluetooth,
    Images,
};
inline constexpr std::size_t kReportedActivityCount = 5;

/// Table 1 of the paper, reconstructed: percentage of the 533 failure
/// reports for each (failure type, recovery action) pair.
struct PaperTable1Cell {
    FailureType type;
    RecoveryAction recovery;
    double percent;
};
[[nodiscard]] std::span<const PaperTable1Cell> paperTable1();

/// The study's report population.
inline constexpr int kPaperReportCount = 533;

/// Paper marginals for the failure types (freeze 25.3%, output 36.3%, …).
[[nodiscard]] double paperFailureTypePercent(FailureType t);

}  // namespace symfail::forum
