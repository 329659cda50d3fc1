// Flash plane: bit rot, torn writes, and transient I/O errors on the
// logger's files.
//
// Two injection modes, both deterministic:
//   * bit rot — an activation flips 1–3 bits of a random stored byte in
//     the target file right away (retention failure in a cell already
//     written);
//   * torn / dropped writes — an activation *arms* a fault that the next
//     write to the target file consumes (a failing program operation).
//     Armed faults ride the FlashFaultInjector hook, so the hot path per
//     write is one enum check and no Rng draw.
//
// Every activation syncs the phone's logger before it draws, so the ticks
// due before it are written (and consume an armed fault) first, as their
// AOs would have.
#pragma once

#include <cstdint>
#include <string>

#include "osfault/plane.hpp"
#include "phone/device.hpp"
#include "phone/flash.hpp"

namespace symfail::osfault {

struct FlashPlaneConfig {
    /// Activation rate (per 1000 device-hours); 0 disables the plane.
    double faultsPerKHour{0.0};

    [[nodiscard]] bool enabled() const { return faultsPerKHour > 0.0; }
};

struct FlashPlaneStats {
    std::uint64_t activations{0};
    std::uint64_t bitFlips{0};
    std::uint64_t tornWrites{0};
    std::uint64_t droppedWrites{0};
};

class FlashPlane final : public FaultPlane, public phone::FlashFaultInjector {
public:
    FlashPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
               FlashPlaneConfig config, std::uint64_t seed);
    ~FlashPlane() override;

    /// Syncs the phone's logger first: the beats due by now consume the
    /// write fault armed against them, as their AOs would have.
    [[nodiscard]] FlashPlaneStats stats() const;

    // phone::FlashFaultInjector
    Verdict onWrite(std::string_view file, std::string_view line) override;
    [[nodiscard]] bool armed(std::string_view file) const override {
        return armedKind_ != Kind::None && file == armedFile_;
    }

protected:
    void activate(sim::Rng& rng) override;

private:
    phone::PhoneDevice* device_;
    /// Armed write fault: consumed by the next write to `armedFile_`.
    Kind armedKind_{Kind::None};
    std::string armedFile_;
    std::uint64_t bitFlips_{0};
    std::uint64_t tornWrites_{0};
    std::uint64_t droppedWrites_{0};
};

}  // namespace symfail::osfault
