// Structured crash dumps.
//
// The paper's Panic Detector records a panic as a bare (category, type)
// pair, which flattens Table 2 into a one-dimensional histogram.  Modern
// crash pipelines ship *minidumps*: at panic time the kernel snapshots the
// faulting context — pseudo-address, scheduler and cleanup-stack state,
// heap statistics, running applications, and a backtrace of the
// propagation chain — and the server clusters those dumps into crash
// families.
//
// The dump here is deterministic: everything in it is a pure function of
// the simulated kernel state at panic time, so for a fixed campaign seed
// the same dumps (bit for bit) are produced on every run.  Per-run-looking
// noise (the fault pseudo-address, handle numbers inside diagnostics) is
// deliberately carried in the raw dump and stripped by signature
// normalization — exactly the split a real symbolication pipeline makes.
//
// Wire format (one line in the consolidated Log File, so dumps ride the
// existing flash/transport/reassembly path unchanged):
//
//   DUMP|<us>|<CAT>|<type>|<addrHex>|<proc>|<cleanupDepth>|<trap>|
//        <aoCount>|<heapLive>|<heapBytes>|<heapAllocs>|<apps,csv>|<f;f;f>
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simkernel/time.hpp"
#include "symbos/kernel.hpp"
#include "symbos/panic.hpp"

namespace symfail::crash {

/// Maximum number of backtrace frames a parser will accept.  Real dumps
/// are 3–6 frames; anything larger is a corrupted or hostile record.
inline constexpr std::size_t kMaxFrames = 32;

/// A structured crash dump captured at panic time.
struct CrashDump {
    sim::TimePoint time;
    symbos::PanicId panic;
    /// Faulting pseudo-address: per-run noise derived from (pid, time,
    /// panic id).  Carried raw; normalization strips it.
    std::uint32_t faultAddress{0};
    std::string processName;
    std::uint32_t cleanupDepth{0};
    bool trapActive{false};
    std::uint32_t schedulerAoCount{0};
    std::uint64_t heapLiveCells{0};
    std::uint64_t heapBytesInUse{0};
    std::uint64_t heapTotalAllocs{0};
    std::vector<std::string> runningApps;
    /// Pseudo-backtrace, innermost frame first.
    std::vector<std::string> frames;

    friend bool operator==(const CrashDump&, const CrashDump&) = default;
};

/// The pseudo-backtrace for a panic: the model's propagation chain for the
/// mechanism behind `id` (mirroring the fault drivers), with a leaf frame
/// derived from the kernel diagnostic.  Pure function of its inputs.
[[nodiscard]] std::vector<std::string> backtraceFor(symbos::PanicId id,
                                                    std::string_view diagnostic);

/// Assembles a dump from the kernel's panic event (which carries the
/// capture context) and the running-application snapshot.
[[nodiscard]] CrashDump makeDump(const symbos::PanicEvent& event,
                                 std::vector<std::string> runningApps);

/// Serializes to the one-line DUMP wire format.
[[nodiscard]] std::string serialize(const CrashDump& dump);

/// Parses a split DUMP line (fields[0] == "DUMP"); nullopt on malformed
/// input.  Never throws — torn flash writes and transport damage land here.
[[nodiscard]] std::optional<CrashDump> parseDumpFields(
    const std::vector<std::string_view>& fields);

}  // namespace symfail::crash
