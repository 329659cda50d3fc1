#include "osfault/radio_plane.hpp"

#include <array>
#include <span>

namespace symfail::osfault {

/// Unnormalized event mix: link drop, modem reset, stale signal.
constexpr std::array<double, 3> kEventWeights{0.5, 0.3, 0.2};
/// Link-drop outage duration (lognormal median, sigma) — coverage holes
/// are long.
constexpr sim::Duration kLinkDropMedian = sim::Duration::minutes(25);
constexpr double kLinkDropSigma = 0.8;
/// Modem-reset outage duration — short, self-recovering.
constexpr sim::Duration kModemResetMedian = sim::Duration::seconds(40);
constexpr double kModemResetSigma = 0.4;
/// Stale-signal window duration.
constexpr sim::Duration kStaleSignalMedian = sim::Duration::minutes(15);
constexpr double kStaleSignalSigma = 0.6;

RadioPlane::RadioPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                       transport::Channel* dataChannel,
                       transport::Channel* ackChannel, RadioPlaneConfig config,
                       std::uint64_t seed)
    : FaultPlane{simulator, "osfault.radio", config.faultsPerKHour, seed},
      device_{&device},
      dataChannel_{dataChannel},
      ackChannel_{ackChannel} {}

RadioPlaneStats RadioPlane::stats() const {
    const phone::RadioModem& modem = device_->radio();
    return {activations(), modem.linkDrops(), modem.modemResets(),
            modem.staleWindows()};
}

void RadioPlane::pushOutage(sim::TimePoint start, sim::TimePoint end) {
    const transport::OutageWindow window{start, end};
    if (dataChannel_ != nullptr) dataChannel_->pushOutage(window);
    if (ackChannel_ != nullptr) ackChannel_->pushOutage(window);
}

void RadioPlane::activate(sim::Rng& rng) {
    const sim::TimePoint now = simulator().now();
    phone::RadioModem& modem = device_->radio();
    switch (rng.discrete(std::span<const double>{kEventWeights})) {
        case 0: {  // link drop: long coverage hole
            if (modem.state() != phone::RadioState::Registered) break;
            const sim::Duration hold =
                rng.lognormalDuration(kLinkDropMedian, kLinkDropSigma);
            modem.beginLinkDrop();
            pushOutage(now, now + hold);
            simulator().scheduleAfter(hold, "osfault.radio.reattach", [this]() {
                device_->radio().endLinkDrop();
            });
            break;
        }
        case 1: {  // modem reset: brief self-recovering outage
            if (modem.state() == phone::RadioState::Resetting) break;
            const sim::Duration hold =
                rng.lognormalDuration(kModemResetMedian, kModemResetSigma);
            modem.beginReset();
            pushOutage(now, now + hold);
            simulator().scheduleAfter(hold, "osfault.radio.reset-done", [this]() {
                device_->radio().endReset();
            });
            break;
        }
        default: {  // stale signal: the bars freeze; no frames are lost
            if (modem.signalStale()) break;
            const sim::Duration hold =
                rng.lognormalDuration(kStaleSignalMedian, kStaleSignalSigma);
            modem.beginStaleSignal();
            simulator().scheduleAfter(hold, "osfault.radio.signal-fresh", [this]() {
                device_->radio().endStaleSignal();
            });
            break;
        }
    }
}

}  // namespace symfail::osfault
