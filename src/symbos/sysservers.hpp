// The Symbian system servers the failure logger reads from:
//
//   * Application Architecture Server — the registry of running
//     applications (the logger's Running Applications Detector polls it);
//   * Database Log Server — the phone activity database: voice calls and
//     text messages, the only activities Symbian's log database registers
//     (the logger's Log Engine reads it);
//   * System Agent Server — battery status (the logger's Power Manager
//     reads it to tell low-battery shutdowns from failures).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::symbos {

/// Phone activity categories.  Only VoiceCall and TextMessage are recorded
/// by the Database Log Server (matching the real phone's log database);
/// the others exist on the device but are invisible to the logger.
enum class ActivityKind : std::uint8_t {
    VoiceCall,
    TextMessage,
    Bluetooth,
    Camera,
    WebBrowsing,
};

[[nodiscard]] std::string_view toString(ActivityKind k);

/// One row in the activity database.
struct ActivityEvent {
    sim::TimePoint time;
    ActivityKind kind{ActivityKind::VoiceCall};
    bool incoming{false};
    bool isStart{true};  ///< start-of-activity vs end-of-activity row
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

/// Database Log Server: persistent phone activity log (survives reboots,
/// like the real phone's log database).
class DbLogServer {
public:
    /// Records an activity row; rows for kinds the real database does not
    /// register (Bluetooth, Camera, WebBrowsing) are ignored, mirroring
    /// the logger's limited visibility.  Precondition: rows arrive in
    /// time order (no row earlier than the last one recorded).  Devices
    /// stamp rows with the simulator clock, which never runs backwards,
    /// so this holds even under an osfault clock plane.
    void record(const ActivityEvent& event);

    [[nodiscard]] const std::deque<ActivityEvent>& events() const { return events_; }
    /// Rows at or after `since`, for incremental collection.  A binary
    /// search, by record()'s time-order precondition.
    [[nodiscard]] std::vector<ActivityEvent> eventsSince(sim::TimePoint since) const;
    /// Bounds memory like the phone's rolling log database.
    void setCapacity(std::size_t maxRows) { capacity_ = maxRows; }

private:
    std::deque<ActivityEvent> events_;
    std::size_t capacity_{4096};
};

/// System Agent Server: battery and charger status.
class SystemAgentServer {
public:
    using LowBatteryHook = std::function<void()>;

    void setBattery(int percent, bool charging);
    [[nodiscard]] int batteryPercent() const { return percent_; }
    [[nodiscard]] bool charging() const { return charging_; }
    [[nodiscard]] bool batteryLow() const { return percent_ <= kLowBatteryPercent; }

    /// Invoked when the battery level crosses the low threshold downwards.
    void addLowBatteryHook(LowBatteryHook hook) { hooks_.push_back(std::move(hook)); }

private:
    static constexpr int kLowBatteryPercent = 3;

    int percent_{100};
    bool charging_{false};
    std::vector<LowBatteryHook> hooks_;
};

}  // namespace symfail::symbos
