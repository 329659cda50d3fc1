// The four OS-interface fault planes wired to one phone, and the
// fleet-level configuration they are built from.
//
// Lifetime contract: a phone's planes must OUTLIVE the device, logger and
// channels they attach to, and die before the phone's simulator.  Planes
// keep raw pointers into those components and install hooks on them; at
// destruction they only cancel their pending arrival.  The fleet's phone
// unit declares its planes after its simulator and before everything else,
// so the device disappears first, hooks and all.
#pragma once

#include <cstdint>
#include <memory>

#include "osfault/clock_plane.hpp"
#include "osfault/flash_plane.hpp"
#include "osfault/memory_plane.hpp"
#include "osfault/radio_plane.hpp"

namespace symfail::osfault {

/// Fleet-level plane configuration, applied to every phone (each phone
/// gets independent Rng substreams).
struct PlaneConfig {
    FlashPlaneConfig flash;
    MemoryPlaneConfig memory;
    ClockPlaneConfig clock;
    RadioPlaneConfig radio;
    /// Attach all hooks at zero rates.  Zero events fire, so campaign
    /// output stays bit-identical to a run without planes — this is how
    /// the hook overhead itself is measured (bench_osfault) and tested.
    bool attachIdle{false};

    [[nodiscard]] bool anyEnabled() const {
        return flash.enabled() || memory.enabled() || clock.enabled() ||
               radio.enabled();
    }
    [[nodiscard]] bool shouldAttach() const { return anyEnabled() || attachIdle; }
};

/// Campaign-wide plane activity, aggregated over phones.
struct CampaignPlaneStats {
    FlashPlaneStats flash;
    MemoryPlaneStats memory;
    ClockPlaneStats clock;
    RadioPlaneStats radio;

    [[nodiscard]] bool any() const {
        return flash.activations != 0 || memory.episodes != 0 ||
               clock.jumps != 0 || radio.activations != 0;
    }
};

/// The planes wired to one phone (a plane a config disables is null —
/// except under attachIdle, where every plane exists at rate zero).
struct PhonePlanes {
    std::unique_ptr<FlashPlane> flash;
    std::unique_ptr<MemoryPlane> memory;
    std::unique_ptr<ClockPlane> clock;
    std::unique_ptr<RadioPlane> radio;

    /// Adds this phone's plane activity to `total`.  The flash plane syncs
    /// the phone's logger first, so the device must still be alive.
    void addStats(CampaignPlaneStats& total) const;
};

/// Wires and starts one phone's planes.  `seed` is the phone's plane base
/// seed; each plane derives its own substream from it, so enabling one
/// plane never shifts another's stream.
[[nodiscard]] PhonePlanes attachPlanes(const PlaneConfig& config,
                                       sim::Simulator& simulator,
                                       phone::PhoneDevice& device,
                                       logger::FailureLogger& logger,
                                       transport::Channel* dataChannel,
                                       transport::Channel* ackChannel,
                                       std::uint64_t seed);

}  // namespace symfail::osfault
