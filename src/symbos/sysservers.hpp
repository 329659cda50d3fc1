// The Symbian system servers the failure logger's Panic Detector reads
// at panic time:
//
//   * Application Architecture Server — the registry of running
//     applications;
//   * System Agent Server — battery status, which also tells low-battery
//     shutdowns from failures.
//
// The paper's logger also copies phone activity from the Database Log
// Server.  No analysis reads that copy (a PANIC record reads the device's
// open activities), so the simulated phone has no activity database.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace symfail::symbos {

/// Phone activity categories.  A PANIC record's activity context (Table 3)
/// reads only VoiceCall and TextMessage, the activities the real phone's
/// log database registers.
enum class ActivityKind : std::uint8_t {
    VoiceCall,
    TextMessage,
    Bluetooth,
    Camera,
    WebBrowsing,
};

/// Application Architecture Server: running-application registry.
class AppArchServer {
public:
    void appStarted(const std::string& app);
    void appStopped(const std::string& app);
    [[nodiscard]] const std::vector<std::string>& running() const { return running_; }
    [[nodiscard]] bool isRunning(std::string_view app) const;
    /// Device power-off: everything stops.
    void reset() { running_.clear(); }

private:
    std::vector<std::string> running_;
};

/// System Agent Server: battery and charger status.
class SystemAgentServer {
public:
    using LowBatteryHook = std::function<void()>;

    /// The level, in whole percent, at and below which the battery is low.
    static constexpr int kLowBatteryPercent = 3;

    void setBattery(int percent, bool charging);
    [[nodiscard]] int batteryPercent() const { return percent_; }
    [[nodiscard]] bool charging() const { return charging_; }
    [[nodiscard]] bool batteryLow() const { return percent_ <= kLowBatteryPercent; }

    /// Invoked when the battery level crosses the low threshold downwards.
    void addLowBatteryHook(LowBatteryHook hook) { hooks_.push_back(std::move(hook)); }

private:
    int percent_{100};
    bool charging_{false};
    std::vector<LowBatteryHook> hooks_;
};

}  // namespace symfail::symbos
