// Resource accountant: where do the *bytes* go when a campaign runs?
//
// ROADMAP item 1 (mega-fleet scale-out) is gated on knowing bytes/phone
// and which subsystem owns them.  The accountant is a ledger of
// per-subsystem byte accounts ("simkernel", "phone", "transport",
// "server", …) fed by periodic read-only sweeps over each subsystem's
// approxMemoryBytes() probe, plus host RSS samples for the
// ground-truth total.
//
// Determinism contract: every recorded value is derived from simulated
// state (string sizes, container sizes and capacities), never from the
// host allocator or the wall clock, so the ledger — unlike RSS — is
// bit-identical across runs of the same campaign in the same binary.
// Sampling sweeps are strictly read-only with respect to the simulated
// world (same contract as CampaignObserver): attaching an accountant
// never changes any campaign table.
//
// Thread-safety: unlike most of the obs layer, the accountant is
// mutex-guarded, because experiment-pool workers may account their
// per-trial subsystems into one shared ledger.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace symfail::obs {

/// Per-subsystem byte-accounting ledger.
class ResourceAccountant {
public:
    /// Records the current footprint of `subsystem` (a sample, not a
    /// delta): the account's current value is replaced and its peak and
    /// sample count updated.  The ledger-wide peak tracks the sum across
    /// accounts after each record.
    void record(std::string_view subsystem, std::uint64_t bytes);

    struct Account {
        std::string subsystem;
        std::uint64_t currentBytes{0};  ///< Most recently recorded footprint.
        std::uint64_t peakBytes{0};     ///< Largest footprint ever recorded.
        std::uint64_t samples{0};       ///< Number of record() calls.
        bool operator==(const Account&) const = default;
    };

    /// All accounts, ordered by subsystem name (deterministic).
    [[nodiscard]] std::vector<Account> accounts() const;
    /// Sum of current bytes across accounts.
    [[nodiscard]] std::uint64_t totalBytes() const;
    /// Largest totalBytes() observed after any record().
    [[nodiscard]] std::uint64_t peakTotalBytes() const;
    /// Total record() calls across all accounts.
    [[nodiscard]] std::uint64_t samplesTaken() const;

private:
    struct State {
        std::uint64_t current{0};
        std::uint64_t peak{0};
        std::uint64_t samples{0};
    };

    mutable std::mutex mutex_;
    std::map<std::string, State, std::less<>> accounts_;
    std::uint64_t total_{0};
    std::uint64_t peakTotal_{0};
    std::uint64_t samples_{0};
};

/// Peak resident-set size of this process in bytes (VmHWM), or 0 when
/// the platform does not expose /proc/self/status.  Host measurement —
/// never feed it into anything that must be deterministic.
[[nodiscard]] std::uint64_t readPeakRssBytes();

}  // namespace symfail::obs
