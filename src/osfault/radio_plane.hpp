// Radio plane: link drops, modem resets, and stale signal readings.
//
// Radio faults reach the measurement pipeline *through* the transport
// layer's outage model, never around it: a link drop or modem reset pushes
// an OutageWindow onto the phone's data and ack channels, so the frames
// lost to radio trouble land in the same outageDrops accounting — and the
// same provenance lost-outage bucket — as a scheduled blackout.  The
// stale-signal fault (a value failure in the paper's taxonomy) only opens
// a counted window on the modem; it costs no frames.
#pragma once

#include <cstdint>

#include "osfault/plane.hpp"
#include "phone/device.hpp"
#include "transport/channel.hpp"

namespace symfail::osfault {

struct RadioPlaneConfig {
    /// Radio fault events per 1000 device-hours; 0 disables the plane.
    double faultsPerKHour{0.0};

    [[nodiscard]] bool enabled() const { return faultsPerKHour > 0.0; }
};

struct RadioPlaneStats {
    std::uint64_t activations{0};
    std::uint64_t linkDrops{0};
    std::uint64_t modemResets{0};
    std::uint64_t staleWindows{0};
};

class RadioPlane final : public FaultPlane {
public:
    /// Channels may be null (transport disabled): modem state still
    /// changes, no outages are pushed.
    RadioPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
               transport::Channel* dataChannel, transport::Channel* ackChannel,
               RadioPlaneConfig config, std::uint64_t seed);

    [[nodiscard]] RadioPlaneStats stats() const;

protected:
    void activate(sim::Rng& rng) override;

private:
    void pushOutage(sim::TimePoint start, sim::TimePoint end);

    phone::PhoneDevice* device_;
    transport::Channel* dataChannel_;
    transport::Channel* ackChannel_;
};

}  // namespace symfail::osfault
