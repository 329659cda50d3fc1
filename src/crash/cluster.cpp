#include "crash/cluster.hpp"

#include <algorithm>

namespace symfail::crash {

/// Similarity strictly above this merges a near-miss signature into an
/// existing family instead of opening a new one.
constexpr double kSimilarityThreshold = 0.8;

void CrashClusterer::add(const std::string& phoneName, const CrashDump& dump) {
    const CrashSignature sig = signatureOf(dump);
    const std::string key = sig.key();

    std::size_t index = 0;
    const auto it = byKey_.find(key);
    if (it != byKey_.end()) {
        index = it->second;
    } else {
        // Near-miss fallback: scan families in insertion order and take
        // the most similar representative above the threshold; ties
        // resolve to the earliest family (deterministic).
        std::size_t best = families_.size();
        double bestScore = kSimilarityThreshold;
        for (std::size_t i = 0; i < families_.size(); ++i) {
            const double score = similarity(sig, families_[i].signature);
            if (score > bestScore) {
                best = i;
                bestScore = score;
            }
        }
        if (best < families_.size()) {
            index = best;
        } else {
            CrashFamily family;
            family.id = familyIdFor(sig);
            family.signature = sig;
            family.firstSeen = dump.time;
            family.lastSeen = dump.time;
            families_.push_back(std::move(family));
            index = families_.size() - 1;
        }
        byKey_[key] = index;
        ++families_[index].distinctSignatures;
    }

    CrashFamily& family = families_[index];
    if (family.dumps == 0 || dump.time < family.firstSeen) {
        family.firstSeen = dump.time;
    }
    if (family.dumps == 0 || dump.time > family.lastSeen) {
        family.lastSeen = dump.time;
    }
    ++family.dumps;
    ++family.perPhone[phoneName];
    for (const auto& app : dump.runningApps) {
        ++family.appCounts[app];
    }
    ++totalDumps_;
}

std::vector<CrashFamily> CrashClusterer::families() const {
    std::vector<CrashFamily> out = families_;
    std::sort(out.begin(), out.end(),
              [](const CrashFamily& a, const CrashFamily& b) {
                  if (a.dumps != b.dumps) return a.dumps > b.dumps;
                  return a.id < b.id;
              });
    return out;
}

}  // namespace symfail::crash
