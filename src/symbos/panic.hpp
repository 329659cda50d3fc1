// Symbian OS panic taxonomy.
//
// A panic is a non-recoverable error condition signalled to the kernel by a
// user or system component.  It carries a *category* (a short string naming
// the signalling subsystem) and a *type* (an integer code within that
// category).  The kernel decides the recovery action — terminating the
// offending process or rebooting the device.
//
// The categories and types modelled here are exactly the twenty rows of
// Table 2 of the paper, together with the documentation strings the paper
// quotes from the Symbian OS documentation and the relative frequencies
// the study measured (used for calibration and paper-vs-measured reports).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace symfail::symbos {

/// Panic categories observed in the study (Table 2).
enum class PanicCategory : std::uint8_t {
    KernExec,        ///< KERN-EXEC: kernel executive panics.
    E32UserCBase,    ///< E32USER-CBase: active objects / cleanup stack / CBase.
    User,            ///< USER: descriptor and user-library panics.
    KernSvr,         ///< KERN-SVR: kernel server panics.
    ViewSrv,         ///< ViewSrv: view server responsiveness watchdog.
    EikonListbox,    ///< EIKON-LISTBOX: UI listbox framework.
    Eikcoctl,        ///< EIKCOCTL: UI control framework (edwin editor).
    PhoneApp,        ///< Phone.app: the core telephony application.
    MsgsClient,      ///< MSGS Client: messaging server client library.
    MmfAudioClient,  ///< MMFAudioClient: multimedia framework audio client.
};

/// Number of distinct categories (for array sizing).
inline constexpr std::size_t kPanicCategoryCount = 10;

[[nodiscard]] std::string_view toString(PanicCategory c);
/// Parses a category string as written in log files; nullopt on unknown
/// input.  Log parsers use this form: a corrupted category string is a
/// parse anomaly to count, never an exception to propagate.
[[nodiscard]] std::optional<PanicCategory> parsePanicCategory(std::string_view s);

/// A (category, type) pair fully identifying a panic.
struct PanicId {
    PanicCategory category{PanicCategory::KernExec};
    int type{0};
    friend bool operator==(PanicId, PanicId) = default;
    friend auto operator<=>(PanicId, PanicId) = default;
};

[[nodiscard]] std::string toString(PanicId id);

// Well-known panics used throughout the model (names follow the Symbian
// documentation's informal descriptions).
inline constexpr PanicId kKernExecBadHandle{PanicCategory::KernExec, 0};
inline constexpr PanicId kKernExecAccessViolation{PanicCategory::KernExec, 3};
inline constexpr PanicId kCBaseTimerOutstanding{PanicCategory::E32UserCBase, 15};
inline constexpr PanicId kCBaseObjectRefCount{PanicCategory::E32UserCBase, 33};
inline constexpr PanicId kCBaseStraySignal{PanicCategory::E32UserCBase, 46};
inline constexpr PanicId kCBaseSchedulerError{PanicCategory::E32UserCBase, 47};
inline constexpr PanicId kCBaseNoTrapHandler{PanicCategory::E32UserCBase, 69};
inline constexpr PanicId kCBaseUndocumented91{PanicCategory::E32UserCBase, 91};
inline constexpr PanicId kCBaseUndocumented92{PanicCategory::E32UserCBase, 92};
inline constexpr PanicId kUserDesIndexOutOfRange{PanicCategory::User, 10};
inline constexpr PanicId kUserDesOverflow{PanicCategory::User, 11};
inline constexpr PanicId kUserNullMessageComplete{PanicCategory::User, 70};
inline constexpr PanicId kKernSvrBadHandleClose{PanicCategory::KernSvr, 0};
inline constexpr PanicId kViewSrvEventStarvation{PanicCategory::ViewSrv, 11};
inline constexpr PanicId kListboxBadItemIndex{PanicCategory::EikonListbox, 3};
inline constexpr PanicId kListboxNoView{PanicCategory::EikonListbox, 5};
inline constexpr PanicId kPhoneAppInternal{PanicCategory::PhoneApp, 2};
inline constexpr PanicId kEikcoctlCorruptEdwin{PanicCategory::Eikcoctl, 70};
inline constexpr PanicId kMsgsClientWriteFailed{PanicCategory::MsgsClient, 3};
inline constexpr PanicId kMmfAudioBadVolume{PanicCategory::MmfAudioClient, 4};

/// Documentation text for a panic (the paper's Table 2 "meaning" column);
/// returns "Not documented" for codes without public documentation.
[[nodiscard]] std::string_view panicMeaning(PanicId id);

/// One row of the paper's Table 2.
struct PaperPanicRow {
    PanicId id;
    double paperPercent;  ///< Relative frequency (%) measured by the study.
};

/// The reconstructed Table 2: twenty rows summing to ~100%.  The paper's
/// total panic population is ~396 events (0.25% == one event).
[[nodiscard]] std::span<const PaperPanicRow> paperPanicTable();

/// Total panic count behind Table 2's percentages.
inline constexpr int kPaperPanicPopulation = 396;

}  // namespace symfail::symbos

template <>
struct std::hash<symfail::symbos::PanicId> {
    std::size_t operator()(const symfail::symbos::PanicId& p) const noexcept {
        return (static_cast<std::size_t>(p.category) << 16) ^
               static_cast<std::size_t>(p.type);
    }
};
