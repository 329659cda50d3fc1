// Ground-truth event record.
//
// The simulator knows exactly what happened on each phone — every injected
// fault, every freeze, every kind of shutdown.  The measurement pipeline
// (logger + analysis) must reconstruct this from log files alone; the
// GroundTruthEvaluator compares the two.  A field study has no such oracle
// — being able to validate the paper's methodology against ground truth is
// the main thing the simulation adds over the original study.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::phone {

/// What actually happened on the device.
enum class TruthKind : std::uint8_t {
    Boot,
    Freeze,               ///< Device became unresponsive (hang or UI-server death).
    BatteryPull,          ///< User removed the battery (recovery from a freeze).
    SelfShutdown,         ///< Kernel rebooted the device on its own.
    UserShutdown,         ///< Deliberate daytime power-off.
    NightShutdown,        ///< Deliberate overnight power-off.
    LowBatteryShutdown,   ///< Battery exhausted.
    LoggerManualOff,      ///< User turned the logger application off.
    LoggerManualOn,       ///< User turned the logger application back on.
    PanicInjected,        ///< A fault activation that raises a panic.
    HangInjected,         ///< A fault activation that freezes without a panic.
    SpontaneousReboot,    ///< A fault activation that reboots without a panic.
    OutputFailureInjected,///< A value failure (wrong output, no crash).
};

/// One ground-truth event.
struct TruthEvent {
    sim::TimePoint time;
    TruthKind kind;
};

/// Per-device ground-truth journal.
class GroundTruth {
public:
    void record(sim::TimePoint time, TruthKind kind);

    [[nodiscard]] std::size_t countOf(TruthKind kind) const;
    /// Events of one kind, in time order.
    [[nodiscard]] std::vector<TruthEvent> eventsOf(TruthKind kind) const;

    /// Approximate heap footprint of the journal (event vector capacity).
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        return sizeof *this + events_.capacity() * sizeof(TruthEvent);
    }

private:
    std::vector<TruthEvent> events_;
};

}  // namespace symfail::phone
