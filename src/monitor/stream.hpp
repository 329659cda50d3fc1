// Streaming record extraction from the ingest path.
//
// The batch pipeline waits for campaign end and reconstructs each phone's
// Log File from the reassembler's chunk map.  The monitor cannot wait: it
// must turn the out-of-order, duplicated, gap-ridden frame stream into
// parsed records *as frames arrive*, while emitting every byte at most
// once and strictly in log order.  Two small machines do that:
//
//   * SegmentTap — per-phone: tracks the contiguous segment prefix of the
//     chunk map and releases bytes as the prefix extends.  The open tail
//     segment is released incrementally (chunking is append-only, so any
//     received prefix of it is final).  A closed segment is released and
//     passed only when the tap can prove it holds the final copy: either a
//     frame for it advertised a later segment (that snapshot had already
//     closed it), or a settle timeout elapsed with a later segment known
//     (covers the segment that filled exactly to its capacity and was
//     acked first try — no longer copy will ever be sent).  A permanently
//     lost segment therefore holds back everything behind it; the batch
//     reconstruction at campaign end still recovers the tail via its
//     gap-splice, which is the documented live-vs-replay difference.
//
//   * LineBuffer — reassembled bytes to complete records: buffers until a
//     newline lands, so records torn across segment boundaries parse once
//     and exactly once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "simkernel/time.hpp"

namespace symfail::monitor {

/// Orders one phone's segment stream into an append-only byte stream.
class SegmentTap {
public:
    /// Settle window for retiring an exactly-full segment.
    static constexpr sim::Duration kSettleTimeout = sim::Duration::hours(12);

    /// Feeds the stored content of segment `seq` after a frame arrival
    /// (`segCount` as advertised by that frame).  Returns the bytes newly
    /// released to the contiguous stream (possibly empty).
    [[nodiscard]] std::string push(std::uint32_t seq, std::uint32_t segCount,
                                   std::string_view payload, sim::TimePoint at);

    /// Timeout-driven drain (called from the monitor's periodic tick):
    /// releases segments whose settle window expired.
    [[nodiscard]] std::string poll(sim::TimePoint at);

    /// End-of-stream drain: releases every buffered contiguous segment
    /// unconditionally (no more frames can arrive, so the held copies are
    /// final).  Still stops at a missing segment.
    [[nodiscard]] std::string flush();

    /// Segments buffered behind the contiguous prefix.
    [[nodiscard]] std::size_t buffered() const { return pending_.size(); }
    [[nodiscard]] std::uint64_t bytesReleased() const { return bytesReleased_; }

    /// Approximate heap footprint of the buffered segments.
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        constexpr std::size_t mapNode = 3 * sizeof(void*);
        std::size_t total = sizeof *this;
        for (const auto& [seq, segment] : pending_) {
            total += sizeof(seq) + segment.bytes.size() + sizeof(Segment) + mapNode;
        }
        return total;
    }

private:
    struct Segment {
        std::string bytes;
        /// A frame for this very segment advertised a later one, proving
        /// the copy we hold is the final (closed) length.
        bool closedProven{false};
        sim::TimePoint lastFrameAt;
    };

    [[nodiscard]] std::string drain(sim::TimePoint at);

    std::map<std::uint32_t, Segment> pending_;
    std::uint32_t nextSeq_{0};
    std::size_t consumed_{0};  ///< Bytes of segment nextSeq_ already released.
    std::uint32_t maxSegCount_{0};
    /// When a later segment first became known for the current front
    /// segment; the settle window counts from here (reset on advance).
    std::optional<sim::TimePoint> settleArmedAt_;
    std::uint64_t bytesReleased_{0};
};

/// Cuts an append-only byte stream into complete, newline-terminated
/// chunks ready for logger::parseLogFile.
class LineBuffer {
public:
    /// Appends bytes; returns the longest complete-line prefix now
    /// available (empty until a newline arrives).
    [[nodiscard]] std::string feed(std::string_view bytes);

    [[nodiscard]] std::size_t pendingBytes() const { return buffer_.size(); }

    /// Approximate heap footprint of the pending partial line.
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        return sizeof *this + buffer_.size();
    }

private:
    std::string buffer_;
};

}  // namespace symfail::monitor
