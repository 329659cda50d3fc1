// Memory plane: heap-pressure episodes that OOM-kill the logger daemon.
//
// An activation switches the daemon from derived to real AO ticks and
// squeezes its heap capacity down to a headroom smaller than the
// heartbeat's scratch allocation.  The next heartbeat tick leaves with
// KErrNoMemory inside its RunL, the active scheduler escalates to
// E32USER-CBase 47, and the kernel terminates the daemon —
// the logger killed through the genuine Symbian OOM path, not by fiat.
// A watchdog restarts the daemon after a delay; the restart re-runs boot
// classification against the stale ALIVE beat and records a *false*
// freeze — the measurement artifact the validity analysis quantifies.
#pragma once

#include <cstdint>

#include "logger/logger.hpp"
#include "osfault/plane.hpp"
#include "phone/device.hpp"

namespace symfail::osfault {

struct MemoryPlaneConfig {
    /// Pressure episodes per 1000 device-hours; 0 disables the plane.
    double episodesPerKHour{0.0};

    [[nodiscard]] bool enabled() const { return episodesPerKHour > 0.0; }
};

struct MemoryPlaneStats {
    std::uint64_t episodes{0};
    std::uint64_t oomKills{0};
    std::uint64_t restarts{0};
};

class MemoryPlane final : public FaultPlane {
public:
    MemoryPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                logger::FailureLogger& logger, MemoryPlaneConfig config,
                std::uint64_t seed);

    [[nodiscard]] MemoryPlaneStats stats() const {
        return {activations(), oomKills_, restarts_};
    }

protected:
    void activate(sim::Rng& rng) override;

private:
    phone::PhoneDevice* device_;
    logger::FailureLogger* logger_;
    /// Daemon pid under pressure; 0 when no episode is in flight.
    symbos::ProcessId watchedPid_{0};
    std::uint64_t oomKills_{0};
    std::uint64_t restarts_{0};
};

}  // namespace symfail::osfault
