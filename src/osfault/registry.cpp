#include "osfault/registry.hpp"

namespace symfail::osfault {
namespace {

// Per-plane seed salts: a plane's substream depends only on the phone's
// base seed and its own salt, never on which other planes are enabled.
constexpr std::uint64_t kFlashSalt = 0x464C415348504C4EULL;   // "FLASHPLN"
constexpr std::uint64_t kMemorySalt = 0x4D454D504C414E45ULL;  // "MEMPLANE"
constexpr std::uint64_t kClockSalt = 0x434C4F434B504C4EULL;   // "CLOCKPLN"
constexpr std::uint64_t kRadioSalt = 0x524144494F504C4EULL;   // "RADIOPLN"

}  // namespace

PhonePlanes& PlaneRegistry::attach(sim::Simulator& simulator,
                                   phone::PhoneDevice& device,
                                   logger::FailureLogger& logger,
                                   transport::Channel* dataChannel,
                                   transport::Channel* ackChannel,
                                   std::uint64_t seed) {
    auto planes = std::make_unique<PhonePlanes>();
    if (config_.flash.enabled() || config_.attachIdle) {
        planes->flash = std::make_unique<FlashPlane>(
            simulator, device, config_.flash, seed ^ kFlashSalt);
        planes->flash->start();
    }
    if (config_.memory.enabled() || config_.attachIdle) {
        planes->memory = std::make_unique<MemoryPlane>(
            simulator, device, logger, config_.memory, seed ^ kMemorySalt);
        planes->memory->start();
    }
    if (config_.clock.enabled() || config_.attachIdle) {
        planes->clock = std::make_unique<ClockPlane>(simulator, device,
                                                     config_.clock,
                                                     seed ^ kClockSalt);
        planes->clock->start();
    }
    if (config_.radio.enabled() || config_.attachIdle) {
        planes->radio = std::make_unique<RadioPlane>(simulator, device,
                                                     dataChannel, ackChannel,
                                                     config_.radio,
                                                     seed ^ kRadioSalt);
        planes->radio->start();
    }
    phones_.push_back(std::move(planes));
    return *phones_.back();
}

CampaignPlaneStats PlaneRegistry::stats() const {
    CampaignPlaneStats total;
    for (const auto& planes : phones_) {
        if (planes->flash) {
            const FlashPlaneStats s = planes->flash->stats();
            total.flash.activations += s.activations;
            total.flash.bitFlips += s.bitFlips;
            total.flash.tornWrites += s.tornWrites;
            total.flash.droppedWrites += s.droppedWrites;
        }
        if (planes->memory) {
            const MemoryPlaneStats s = planes->memory->stats();
            total.memory.episodes += s.episodes;
            total.memory.oomKills += s.oomKills;
            total.memory.restarts += s.restarts;
        }
        if (planes->clock) {
            const ClockPlaneStats s = planes->clock->stats();
            total.clock.jumps += s.jumps;
            total.clock.backwardJumps += s.backwardJumps;
            total.clock.monotonicityViolations += s.monotonicityViolations;
        }
        if (planes->radio) {
            const RadioPlaneStats s = planes->radio->stats();
            total.radio.activations += s.activations;
            total.radio.linkDrops += s.linkDrops;
            total.radio.modemResets += s.modemResets;
            total.radio.staleWindows += s.staleWindows;
        }
    }
    return total;
}

}  // namespace symfail::osfault
