// Minimal telephony/radio interface on the device model.
//
// Real Symbian phones expose the cellular modem through ETel; the logger's
// uploads ride whatever bearer the modem provides.  This model keeps just
// enough state for the osfault radio plane to act on — registration state,
// stale-signal windows, and reset counters — while
// the *effect* of radio faults (lost upload frames) flows through the
// transport layer's existing outage model rather than bypassing it: the
// radio plane translates modem events into `transport::OutageWindow`s on
// the phone's channels, so drops land in the same outage accounting the
// monitor and provenance already audit.
#pragma once

#include <cstdint>

namespace symfail::phone {

/// Modem registration state.
enum class RadioState : std::uint8_t {
    Registered,  ///< Camped on a cell; bearer available.
    NoService,   ///< Link dropped; no bearer.
    Resetting,   ///< Modem firmware restarting.
};

/// The modem.  One per device; survives reboots (baseband processors run
/// their own firmware independent of the application OS).
class RadioModem {
public:
    [[nodiscard]] RadioState state() const { return state_; }
    /// True inside a stale-signal window (the paper-family "wrong
    /// indicator" output failure, radio edition).  The model keeps no
    /// signal reading: a window only counts, and loses no frames.
    [[nodiscard]] bool signalStale() const { return signalStale_; }

    /// Link drop: registration lost until `endLinkDrop`.
    void beginLinkDrop();
    void endLinkDrop();

    /// Modem reset: brief self-recovering outage; counted separately
    /// because it is a *modem* failure, not coverage.
    void beginReset();
    void endReset();

    /// Stale-signal window.
    void beginStaleSignal();
    void endStaleSignal();

    // -- Statistics (ground truth for the radio plane) ---------------------
    [[nodiscard]] std::uint64_t linkDrops() const { return linkDrops_; }
    [[nodiscard]] std::uint64_t modemResets() const { return modemResets_; }
    [[nodiscard]] std::uint64_t staleWindows() const { return staleWindows_; }

private:
    RadioState state_{RadioState::Registered};
    bool signalStale_{false};
    std::uint64_t linkDrops_{0};
    std::uint64_t modemResets_{0};
    std::uint64_t staleWindows_{0};
};

}  // namespace symfail::phone
