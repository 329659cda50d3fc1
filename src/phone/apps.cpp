#include "phone/apps.hpp"

#include <array>
#include <stdexcept>

namespace symfail::phone {

std::span<const AppInfo> appCatalog() {
    using symbos::ProcessKind;
    static const std::array<AppInfo, 12> kCatalog{{
        // name            kind                    weight  session median
        {kAppTelephone, ProcessKind::CoreApp, 0.0, sim::Duration::minutes(2)},
        {kAppMessages, ProcessKind::CoreApp, 0.0, sim::Duration::minutes(1)},
        {kAppContacts, ProcessKind::UserApp, 2.0, sim::Duration::seconds(45)},
        {kAppLog, ProcessKind::UserApp, 1.6, sim::Duration::seconds(30)},
        {kAppClock, ProcessKind::UserApp, 1.2, sim::Duration::seconds(20)},
        {kAppCamera, ProcessKind::UserApp, 1.4, sim::Duration::minutes(2)},
        {kAppCalendar, ProcessKind::UserApp, 0.9, sim::Duration::seconds(50)},
        {kAppBtBrowser, ProcessKind::UserApp, 0.6, sim::Duration::minutes(3)},
        {kAppFExplorer, ProcessKind::UserApp, 0.5, sim::Duration::minutes(2)},
        {kAppTomTom, ProcessKind::UserApp, 0.4, sim::Duration::minutes(20)},
        {kAppMediaPlayer, ProcessKind::UserApp, 0.8, sim::Duration::minutes(10)},
        {kAppWebBrowser, ProcessKind::UserApp, 0.7, sim::Duration::minutes(4)},
    }};
    return kCatalog;
}

const AppInfo& appInfo(std::string_view name) {
    for (const AppInfo& info : appCatalog()) {
        if (info.name == name) return info;
    }
    throw std::invalid_argument("unknown application: " + std::string{name});
}

}  // namespace symfail::phone
