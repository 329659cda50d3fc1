// 64-bit FNV-1a, the one hash behind RNG substream salts, crash dump and
// family ids, and provenance flow ids.  Each of those values is pinned by
// the golden digests, so the constants must not change.
#pragma once

#include <cstdint>
#include <string_view>

namespace symfail::obs {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// FNV-1a of `bytes`, continuing from `hash` (the offset basis by default).
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                              std::uint64_t hash = kFnvOffset) {
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

}  // namespace symfail::obs
