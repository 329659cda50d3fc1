// PlaneRegistry: per-fleet configuration and per-phone wiring of the four
// OS-interface fault planes.
//
// Lifetime contract: the registry (and the planes it owns) must OUTLIVE
// the devices, loggers and channels the planes attach to.  Planes keep raw
// pointers into those components, install hooks on them, and deliberately
// do nothing at destruction — the fleet declares the registry before its
// phones so the phones disappear first, hooks and all.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

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

/// The planes wired to one phone (a plane a config disables is null —
/// except under attachIdle, where every plane exists at rate zero).
struct PhonePlanes {
    std::unique_ptr<FlashPlane> flash;
    std::unique_ptr<MemoryPlane> memory;
    std::unique_ptr<ClockPlane> clock;
    std::unique_ptr<RadioPlane> radio;
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

class PlaneRegistry {
public:
    explicit PlaneRegistry(PlaneConfig config) : config_{std::move(config)} {}

    /// Wires and starts this phone's planes.  `seed` is the phone's plane
    /// base seed; each plane derives its own substream from it, so
    /// enabling one plane never shifts another's stream.
    PhonePlanes& attach(sim::Simulator& simulator, phone::PhoneDevice& device,
                        logger::FailureLogger& logger,
                        transport::Channel* dataChannel,
                        transport::Channel* ackChannel, std::uint64_t seed);

    /// Aggregates stats over every attached phone.
    [[nodiscard]] CampaignPlaneStats stats() const;

private:
    PlaneConfig config_;
    std::vector<std::unique_ptr<PhonePlanes>> phones_;
};

}  // namespace symfail::osfault
