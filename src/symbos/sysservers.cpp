#include "symbos/sysservers.hpp"

#include <algorithm>

namespace symfail::symbos {

void AppArchServer::appStarted(const std::string& app) {
    if (!isRunning(app)) running_.push_back(app);
}

void AppArchServer::appStopped(const std::string& app) {
    running_.erase(std::remove(running_.begin(), running_.end(), app), running_.end());
}

bool AppArchServer::isRunning(std::string_view app) const {
    return std::any_of(running_.begin(), running_.end(),
                       [&](const std::string& a) { return a == app; });
}

void SystemAgentServer::setBattery(int percent, bool charging) {
    const bool wasLow = batteryLow();
    percent_ = percent;
    charging_ = charging;
    if (!wasLow && batteryLow()) {
        for (const auto& hook : hooks_) hook();
    }
}

}  // namespace symfail::symbos
