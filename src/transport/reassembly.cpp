#include "transport/reassembly.hpp"

#include <algorithm>

namespace symfail::transport {

IngestResult Reassembler::ingest(std::string_view bytes) {
    IngestResult result;
    auto frame = decodeFrame(bytes);
    if (!frame) {
        ++stats_.framesRejected;
        return result;
    }
    result.phone = frame->phone;
    result.seq = frame->seq;
    result.segCount = frame->segCount;

    Assembly& assembly = assemblies_[frame->phone];
    assembly.segCount = std::max(assembly.segCount, frame->segCount);

    auto [it, inserted] = assembly.segments.try_emplace(frame->seq);
    if (inserted) {
        it->second = std::move(frame->payload);
        ++stats_.segmentsStored;
    } else if (frame->payload.size() > it->second.size()) {
        // The open tail segment grew since we last saw it; the longer copy
        // strictly extends the shorter one (append-only chunking).
        it->second = std::move(frame->payload);
    } else {
        ++stats_.duplicates;
        result.duplicate = true;
    }
    result.payload = it->second;
    result.ack = Ack{std::move(frame->phone), frame->seq,
                     static_cast<std::uint32_t>(it->second.size())};
    return result;
}

double Reassembler::coverage(const std::string& phone) const {
    const auto it = assemblies_.find(phone);
    if (it == assemblies_.end()) return 0.0;
    const Assembly& assembly = it->second;
    // A frame's seq can exceed its snapshot's segCount only under
    // corruption that still passed CRC (practically impossible), but keep
    // the accounting monotone anyway.
    std::uint32_t highestSeq = 0;
    if (!assembly.segments.empty()) highestSeq = assembly.segments.rbegin()->first + 1;
    const std::size_t expected = std::max<std::size_t>(assembly.segCount, highestSeq);
    if (expected == 0) return 1.0;
    return static_cast<double>(assembly.segments.size()) /
           static_cast<double>(expected);
}

std::string Reassembler::reconstruct(const std::string& phone) const {
    const auto it = assemblies_.find(phone);
    if (it == assemblies_.end()) return {};
    std::string content;
    std::uint32_t expectedSeq = 0;
    for (const auto& [seq, payload] : it->second.segments) {
        if (seq != expectedSeq && !content.empty() && content.back() != '\n') {
            // Gap: make sure the record torn at the end of the previous
            // held segment cannot fuse with the first line after the gap.
            content += '\n';
        }
        content += payload;
        expectedSeq = seq + 1;
    }
    return content;
}

std::size_t Reassembler::approxMemoryBytes() const {
    constexpr std::size_t mapNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    for (const auto& [phone, assembly] : assemblies_) {
        total += phone.size() + sizeof(std::string) + sizeof(Assembly) + mapNode;
        for (const auto& [seq, segment] : assembly.segments) {
            total += sizeof(seq) + segment.size() + sizeof(std::string) + mapNode;
        }
    }
    return total;
}

}  // namespace symfail::transport
