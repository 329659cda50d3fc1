#include "osfault/flash_plane.hpp"

#include <array>
#include <span>

#include "logger/records.hpp"

namespace symfail::osfault {

/// Unnormalized effect mix drawn per activation: bit rot, torn write,
/// dropped write.
constexpr std::array<double, 3> kEffectWeights{0.5, 0.3, 0.2};

FlashPlane::FlashPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                       FlashPlaneConfig config, std::uint64_t seed)
    : FaultPlane{simulator, "osfault.flash", config.faultsPerKHour, seed},
      device_{&device} {
    device_->flash().setFaultInjector(this);
}

// Planes outlive the device they attach to (see phone_planes.hpp), so
// the store — and its injector pointer — is gone before this runs; there
// is nothing to detach.
FlashPlane::~FlashPlane() = default;

FlashPlaneStats FlashPlane::stats() const {
    device_->syncLogger();
    return {activations(), bitFlips_, tornWrites_, droppedWrites_};
}

void FlashPlane::activate(sim::Rng& rng) {
    device_->syncLogger();
    // The plane targets the logger's measurement files: the compacted
    // beats file and the consolidated Log File.
    const std::string_view target =
        rng.bernoulli(0.5) ? logger::kBeatsFile : logger::kLogFile;
    switch (rng.discrete(std::span<const double>{kEffectWeights})) {
        case 0: {  // bit rot in already-stored bytes
            const std::size_t size = device_->flash().content(target).size();
            if (size == 0) break;
            const auto flips = static_cast<int>(rng.uniformInt(1, 3));
            for (int i = 0; i < flips; ++i) {
                const auto offset = static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(size) - 1));
                const auto mask = static_cast<std::uint8_t>(
                    1U << static_cast<unsigned>(rng.uniformInt(0, 7)));
                if (device_->flash().corruptByte(target, offset, mask)) ++bitFlips_;
            }
            break;
        }
        case 1:  // arm a torn write
            armedKind_ = Kind::Torn;
            armedFile_ = target;
            break;
        default:  // arm a dropped write (transient I/O error)
            armedKind_ = Kind::Drop;
            armedFile_ = target;
            break;
    }
}

FlashPlane::Verdict FlashPlane::onWrite(std::string_view file,
                                        std::string_view line) {
    if (armedKind_ == Kind::None || file != armedFile_) return {};
    Verdict verdict;
    verdict.kind = armedKind_;
    armedKind_ = Kind::None;
    armedFile_.clear();
    if (verdict.kind == Kind::Torn) {
        // Keep a uniformly random prefix; never the full line + '\n'.
        verdict.keepBytes = static_cast<std::size_t>(
            rng().uniformInt(0, static_cast<std::int64_t>(line.size())));
        ++tornWrites_;
    } else {
        ++droppedWrites_;
    }
    return verdict;
}

}  // namespace symfail::osfault
