// Server-side crash-family clustering.
//
// Dumps arrive one by one (per phone, in log order).  Exact-signature
// matches bucket by key; a new signature that misses every bucket is
// compared against existing families' representative signatures and merged
// into the most similar one above the threshold (near-miss fallback — a
// frame renamed or an extra wrapper frame must not split a family).
// Otherwise a new family is opened, identified by the stable hash id of
// its first — representative — signature.
//
// Determinism: input order is deterministic (phones sorted, records in
// log order), all containers iterate in sorted or insertion order, and
// family ids depend only on signature content — so for a fixed seed the
// clustering output is byte-identical across runs and `--jobs` settings.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "crash/dump.hpp"
#include "crash/signature.hpp"
#include "simkernel/time.hpp"

namespace symfail::crash {

/// One crash family: a group of dumps sharing a normalized failure shape.
struct CrashFamily {
    std::string id;               ///< stable: hash of the representative signature
    CrashSignature signature;     ///< representative (first seen)
    std::size_t dumps{0};
    std::size_t distinctSignatures{0};  ///< exact signatures merged into this family
    std::map<std::string, std::size_t> perPhone;
    std::map<std::string, std::size_t> appCounts;  ///< running apps across dumps
    sim::TimePoint firstSeen;
    sim::TimePoint lastSeen;
};

/// Incremental clusterer.
class CrashClusterer {
public:
    /// Adds one dump attributed to `phoneName`.
    void add(const std::string& phoneName, const CrashDump& dump);

    [[nodiscard]] std::size_t totalDumps() const { return totalDumps_; }

    /// Families ordered by (dumps desc, id asc) — the stable report order.
    [[nodiscard]] std::vector<CrashFamily> families() const;

private:
    std::vector<CrashFamily> families_;          // insertion order
    std::map<std::string, std::size_t> byKey_;   // signature key -> family index
    std::size_t totalDumps_{0};
};

}  // namespace symfail::crash
