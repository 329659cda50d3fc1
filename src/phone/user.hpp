// The user behaviour model.
//
// Drives everything a human does to the phone: voice calls, text messages,
// camera/Bluetooth/web sessions, opening and closing applications, turning
// the phone off at night or in meetings, noticing a frozen phone and
// pulling the battery, and (rarely) switching the logger application off —
// the source of MAOFF records.
//
// All activity is diurnal: it happens between the profile's wake and sleep
// hours.  Every scheduled behaviour is guarded by the device's boot epoch,
// so a reboot or freeze invalidates in-flight behaviour (a call cannot
// "end" across a crash — which is why crashed calls never get their end
// row in the activity database, exactly as on a real phone).
#pragma once

#include <cstdint>
#include <functional>

#include "simkernel/rng.hpp"
#include "simkernel/time.hpp"

namespace symfail::phone {

class PhoneDevice;
struct UserProfile;

/// Per-device user model; owned by the PhoneDevice.
class UserModel {
public:
    UserModel(PhoneDevice& device, sim::Rng rng);

    /// Starts device-lifetime behaviours (night routine, logger toggles).
    /// Called once.
    void start();

    /// (Re)starts the on-time activity chains.  Called at each boot.
    void deviceBooted();

    /// The device froze: schedule noticing it and pulling the battery.
    void deviceFroze();

private:
    /// Maps "`active` seconds of waking time after `from`" to a wall-clock
    /// instant, skipping the night window.
    [[nodiscard]] sim::TimePoint advanceActiveTime(sim::TimePoint from,
                                                   double activeSeconds) const;
    [[nodiscard]] bool isNight(sim::TimePoint t) const;
    [[nodiscard]] sim::TimePoint nextWake(sim::TimePoint t) const;

    /// Schedules `body` after `activeGapSeconds` of waking time, guarded by
    /// the current boot epoch.
    void scheduleOnChain(double activeGapSeconds, const std::function<void()>& body);

    void scheduleNextCall();
    void scheduleNextMessage();
    void scheduleNextMediaSession();
    void scheduleNextAppSession();
    void scheduleNextDaytimeOff();
    void scheduleNextQuickCycle();
    void scheduleNightRoutine(sim::TimePoint at);
    void scheduleNextLoggerToggle();

    void fireCall();
    void fireMessage();
    void fireAppSession();

    PhoneDevice* device_;
    sim::Rng rng_;
};

}  // namespace symfail::phone
