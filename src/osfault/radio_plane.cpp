#include "osfault/radio_plane.hpp"

#include <array>
#include <span>

namespace symfail::osfault {

RadioPlane::RadioPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                       transport::Channel* dataChannel,
                       transport::Channel* ackChannel, RadioPlaneConfig config,
                       std::uint64_t seed)
    : FaultPlane{simulator, "osfault.radio",
                 FaultSchedule{config.faultsPerKHour, 1, {}, {}}, seed},
      device_{&device},
      dataChannel_{dataChannel},
      ackChannel_{ackChannel},
      config_{config} {}

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
    const std::array<double, 3> weights{config_.linkDropWeight,
                                        config_.modemResetWeight,
                                        config_.staleSignalWeight};
    switch (rng.discrete(std::span<const double>{weights})) {
        case 0: {  // link drop: long coverage hole
            if (modem.state() != phone::RadioState::Registered) break;
            const sim::Duration hold =
                rng.lognormalDuration(config_.linkDropMedian, config_.linkDropSigma);
            modem.beginLinkDrop();
            modem.setSignalBars(0);
            pushOutage(now, now + hold);
            simulator().scheduleAfter(hold, "osfault.radio.reattach", [this]() {
                phone::RadioModem& m = device_->radio();
                m.endLinkDrop();
                m.setSignalBars(4);
            });
            break;
        }
        case 1: {  // modem reset: brief self-recovering outage
            if (modem.state() == phone::RadioState::Resetting) break;
            const sim::Duration hold = rng.lognormalDuration(
                config_.modemResetMedian, config_.modemResetSigma);
            modem.beginReset();
            pushOutage(now, now + hold);
            simulator().scheduleAfter(hold, "osfault.radio.reset-done", [this]() {
                device_->radio().endReset();
            });
            break;
        }
        default: {  // stale signal: the bars freeze; no frames are lost
            if (modem.signalStale()) break;
            const sim::Duration hold = rng.lognormalDuration(
                config_.staleSignalMedian, config_.staleSignalSigma);
            modem.beginStaleSignal();
            simulator().scheduleAfter(hold, "osfault.radio.signal-fresh", [this]() {
                device_->radio().endStaleSignal();
            });
            break;
        }
    }
}

}  // namespace symfail::osfault
