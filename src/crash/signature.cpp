#include "crash/signature.hpp"

#include <algorithm>
#include <cctype>

#include "obs/fnv.hpp"

namespace symfail::crash {
namespace {

bool isHexDigit(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
           (c >= 'A' && c <= 'F');
}

}  // namespace

std::string normalizeFrame(std::string_view frame) {
    std::string out;
    out.reserve(frame.size());
    std::size_t i = 0;
    while (i < frame.size()) {
        // Hex literal: 0x followed by at least one hex digit.
        if (frame[i] == '0' && i + 2 < frame.size() &&
            (frame[i + 1] == 'x' || frame[i + 1] == 'X') &&
            isHexDigit(frame[i + 2])) {
            out += "0x#";
            i += 2;
            while (i < frame.size() && isHexDigit(frame[i])) ++i;
            continue;
        }
        // Digit run.
        if (std::isdigit(static_cast<unsigned char>(frame[i])) != 0) {
            out += '#';
            while (i < frame.size() &&
                   std::isdigit(static_cast<unsigned char>(frame[i])) != 0) {
                ++i;
            }
            continue;
        }
        out += frame[i];
        ++i;
    }
    return out;
}

CrashSignature signatureOf(const CrashDump& dump) {
    CrashSignature sig;
    sig.panic = dump.panic;
    sig.frames.reserve(dump.frames.size());
    for (const auto& frame : dump.frames) {
        sig.frames.push_back(normalizeFrame(frame));
    }
    return sig;
}

std::string CrashSignature::key() const {
    std::string key = std::string{symbos::toString(panic.category)} + "|" +
                      std::to_string(panic.type);
    for (const auto& frame : frames) {
        key += ';';
        key += frame;
    }
    return key;
}

std::uint64_t signatureHash(const CrashSignature& sig) {
    return obs::fnv1a64(sig.key());
}

std::string familyIdFor(const CrashSignature& sig) {
    const std::uint64_t h = signatureHash(sig);
    const auto folded = static_cast<std::uint32_t>(h ^ (h >> 32));
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string id = "F-00000000";
    std::uint32_t v = folded;
    for (int i = 9; i >= 2; --i) {
        id[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
        v >>= 4;
    }
    return id;
}

double similarity(const CrashSignature& a, const CrashSignature& b) {
    if (a.panic != b.panic) return 0.0;
    if (a.frames.empty() && b.frames.empty()) return 1.0;
    std::vector<std::string> sortedA = a.frames;
    std::vector<std::string> sortedB = b.frames;
    std::sort(sortedA.begin(), sortedA.end());
    std::sort(sortedB.begin(), sortedB.end());
    std::vector<std::string> common;
    std::set_intersection(sortedA.begin(), sortedA.end(), sortedB.begin(),
                          sortedB.end(), std::back_inserter(common));
    const std::size_t longest = std::max(sortedA.size(), sortedB.size());
    return longest == 0 ? 1.0
                        : static_cast<double>(common.size()) /
                              static_cast<double>(longest);
}

}  // namespace symfail::crash
