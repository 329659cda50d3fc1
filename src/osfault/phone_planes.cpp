#include "osfault/phone_planes.hpp"

namespace symfail::osfault {
namespace {

// Per-plane seed salts: a plane's substream depends only on the phone's
// base seed and its own salt, never on which other planes are enabled.
constexpr std::uint64_t kFlashSalt = 0x464C415348504C4EULL;   // "FLASHPLN"
constexpr std::uint64_t kMemorySalt = 0x4D454D504C414E45ULL;  // "MEMPLANE"
constexpr std::uint64_t kClockSalt = 0x434C4F434B504C4EULL;   // "CLOCKPLN"
constexpr std::uint64_t kRadioSalt = 0x524144494F504C4EULL;   // "RADIOPLN"

}  // namespace

PhonePlanes attachPlanes(const PlaneConfig& config, sim::Simulator& simulator,
                         phone::PhoneDevice& device, logger::FailureLogger& logger,
                         transport::Channel* dataChannel, transport::Channel* ackChannel,
                         std::uint64_t seed) {
    PhonePlanes planes;
    if (config.flash.enabled() || config.attachIdle) {
        planes.flash = std::make_unique<FlashPlane>(simulator, device, config.flash,
                                                    seed ^ kFlashSalt);
        planes.flash->start();
    }
    if (config.memory.enabled() || config.attachIdle) {
        planes.memory = std::make_unique<MemoryPlane>(simulator, device, logger,
                                                      config.memory, seed ^ kMemorySalt);
        planes.memory->start();
    }
    if (config.clock.enabled() || config.attachIdle) {
        planes.clock = std::make_unique<ClockPlane>(simulator, device, config.clock,
                                                    seed ^ kClockSalt);
        planes.clock->start();
    }
    if (config.radio.enabled() || config.attachIdle) {
        planes.radio = std::make_unique<RadioPlane>(simulator, device, dataChannel,
                                                    ackChannel, config.radio,
                                                    seed ^ kRadioSalt);
        planes.radio->start();
    }
    return planes;
}

void PhonePlanes::addStats(CampaignPlaneStats& total) const {
    if (flash) {
        const FlashPlaneStats s = flash->stats();
        total.flash.activations += s.activations;
        total.flash.bitFlips += s.bitFlips;
        total.flash.tornWrites += s.tornWrites;
        total.flash.droppedWrites += s.droppedWrites;
    }
    if (memory) {
        const MemoryPlaneStats s = memory->stats();
        total.memory.episodes += s.episodes;
        total.memory.oomKills += s.oomKills;
        total.memory.restarts += s.restarts;
    }
    if (clock) {
        const ClockPlaneStats s = clock->stats();
        total.clock.jumps += s.jumps;
        total.clock.backwardJumps += s.backwardJumps;
        total.clock.monotonicityViolations += s.monotonicityViolations;
    }
    if (radio) {
        const RadioPlaneStats s = radio->stats();
        total.radio.activations += s.activations;
        total.radio.linkDrops += s.linkDrops;
        total.radio.modemResets += s.modemResets;
        total.radio.staleWindows += s.staleWindows;
    }
}

}  // namespace symfail::osfault
