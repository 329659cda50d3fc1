// The application catalog of a simulated Symbian smart phone.
//
// Names follow the applications the paper's Table 4 found implicated in
// panics (Messages, Camera, Clock, Log, Contacts, Telephone, BT_Browser,
// FExplorer, TomTom) plus a few common extras.  `Telephone` and `Messages`
// are *core applications*: the paper observes that the kernel always
// reboots the phone when Phone.app or the message server fails.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "simkernel/time.hpp"
#include "symbos/kernel.hpp"

namespace symfail::phone {

/// Static description of an installable/preinstalled application.
struct AppInfo {
    std::string_view name;
    symbos::ProcessKind kind;
    /// Relative likelihood that a user session opens this app.
    double launchWeight;
    /// Median foreground session length.
    sim::Duration sessionMedian;
};

/// The full catalog.  Telephone and Messages are resident core apps; the
/// rest are user applications launched on demand.
[[nodiscard]] std::span<const AppInfo> appCatalog();

/// Looks up catalog info by name; throws std::invalid_argument if unknown.
[[nodiscard]] const AppInfo& appInfo(std::string_view name);

// Well-known names (referenced by the fault catalog and analyses).
inline constexpr std::string_view kAppTelephone = "Telephone";
inline constexpr std::string_view kAppMessages = "Messages";
inline constexpr std::string_view kAppContacts = "Contacts";
inline constexpr std::string_view kAppLog = "Log";
inline constexpr std::string_view kAppClock = "Clock";
inline constexpr std::string_view kAppCamera = "Camera";
inline constexpr std::string_view kAppCalendar = "Calendar";
inline constexpr std::string_view kAppBtBrowser = "BT_Browser";
inline constexpr std::string_view kAppFExplorer = "FExplorer";
inline constexpr std::string_view kAppTomTom = "TomTom";
inline constexpr std::string_view kAppMediaPlayer = "MediaPlayer";
inline constexpr std::string_view kAppWebBrowser = "WebBrowser";

// System process names (not applications).
inline constexpr std::string_view kProcWindowServer = "WSERV";
inline constexpr std::string_view kProcMsgServer = "MSGS";
inline constexpr std::string_view kProcFileServer = "EFILE";
inline constexpr std::string_view kProcSystemAgent = "SYSAGENT";

}  // namespace symfail::phone
