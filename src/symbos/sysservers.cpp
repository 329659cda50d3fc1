#include "symbos/sysservers.hpp"

#include <algorithm>
#include <cassert>

namespace symfail::symbos {

std::string_view toString(ActivityKind k) {
    switch (k) {
        case ActivityKind::VoiceCall: return "voice-call";
        case ActivityKind::TextMessage: return "text-message";
        case ActivityKind::Bluetooth: return "bluetooth";
        case ActivityKind::Camera: return "camera";
        case ActivityKind::WebBrowsing: return "web-browsing";
    }
    return "?";
}

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

void DbLogServer::record(const ActivityEvent& event) {
    if (event.kind != ActivityKind::VoiceCall && event.kind != ActivityKind::TextMessage) {
        return;
    }
    assert(events_.empty() || events_.back().time <= event.time);
    events_.push_back(event);
    while (events_.size() > capacity_) events_.pop_front();
}

std::vector<ActivityEvent> DbLogServer::eventsSince(sim::TimePoint since) const {
    const auto first = std::partition_point(
        events_.begin(), events_.end(),
        [&](const ActivityEvent& e) { return e.time < since; });
    return {first, events_.end()};
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
