#include "obs/accountant.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

namespace symfail::obs {

void ResourceAccountant::record(std::string_view subsystem, std::uint64_t bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = accounts_.find(subsystem);
    State& state =
        it != accounts_.end() ? it->second : accounts_[std::string{subsystem}];
    total_ -= state.current;
    state.current = bytes;
    total_ += bytes;
    if (bytes > state.peak) state.peak = bytes;
    if (total_ > peakTotal_) peakTotal_ = total_;
    ++state.samples;
    ++samples_;
}

std::vector<ResourceAccountant::Account> ResourceAccountant::accounts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Account> out;
    out.reserve(accounts_.size());
    for (const auto& [name, state] : accounts_) {
        out.push_back({name, state.current, state.peak, state.samples});
    }
    return out;
}

std::uint64_t ResourceAccountant::totalBytes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::uint64_t ResourceAccountant::peakTotalBytes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peakTotal_;
}

std::uint64_t ResourceAccountant::samplesTaken() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
}

namespace {

/// Parses a "VmXXX:  1234 kB" line from /proc/self/status into bytes.
std::uint64_t readStatusKb(const char* key) {
    std::ifstream status("/proc/self/status");
    if (!status.is_open()) return 0;
    const std::size_t keyLen = std::strlen(key);
    std::string line;
    while (std::getline(status, line)) {
        if (line.compare(0, keyLen, key) != 0) continue;
        const char* cursor = line.c_str() + keyLen;
        char* end = nullptr;
        const unsigned long long kb = std::strtoull(cursor, &end, 10);
        if (end == cursor) return 0;
        return static_cast<std::uint64_t>(kb) * 1024;
    }
    return 0;
}

}  // namespace

std::uint64_t readPeakRssBytes() { return readStatusKb("VmHWM:"); }

}  // namespace symfail::obs
