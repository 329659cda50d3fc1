#include "phone/radio.hpp"

namespace symfail::phone {

void RadioModem::beginLinkDrop() {
    if (state_ != RadioState::Registered) return;
    state_ = RadioState::NoService;
    ++linkDrops_;
}

void RadioModem::endLinkDrop() {
    if (state_ == RadioState::NoService) state_ = RadioState::Registered;
}

void RadioModem::beginReset() {
    if (state_ == RadioState::Resetting) return;
    state_ = RadioState::Resetting;
    ++modemResets_;
}

void RadioModem::endReset() {
    if (state_ == RadioState::Resetting) state_ = RadioState::Registered;
}

void RadioModem::beginStaleSignal() {
    if (signalStale_) return;
    signalStale_ = true;
    ++staleWindows_;
}

void RadioModem::endStaleSignal() { signalStale_ = false; }

}  // namespace symfail::phone
