// Chunk framing for the log-transport path.
//
// A phone's Log File leaves the device in CRC-framed, sequence-numbered
// segments so the collection server can detect corruption, suppress
// duplicates and merge out-of-order arrivals.  Framing is line-aligned:
// a segment always carries whole log records, and the greedy packer
// never moves a record between segments once a segment is full — so an
// append-only Log File produces a stable segment prefix and only the
// final, still-open segment grows between upload rounds.
//
// Wire format (one frame per transmission):
//   SEGv1|<phone>|<seq>|<segCount>|<payloadBytes>|<crc32 hex>\n<payload>
// and for the acknowledgement path:
//   ACKv1|<phone>|<seq>|<payloadBytes>|<crc32 hex>
// The CRC covers the header fields and the payload, so a corrupted
// sequence number is rejected rather than filed under the wrong segment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace symfail::transport {

/// CRC-32/ISO-HDLC (the IEEE 802.3 polynomial, reflected) of `data`,
/// continuing from `crc`, the CRC of the bytes before it (0 for none):
/// crc32(b, crc32(a)) is the CRC of a followed by b.  Computed by
/// slicing-by-8.
[[nodiscard]] std::uint32_t crc32(std::string_view data, std::uint32_t crc = 0);

/// One Log File segment in flight.
struct Frame {
    std::string phone;
    std::uint32_t seq{0};       ///< Segment index within the Log File.
    std::uint32_t segCount{0};  ///< Total segments in the snapshot this frame left.
    std::string payload;        ///< Whole log lines, each '\n'-terminated.
};

/// Server-to-phone acknowledgement of one received segment.
struct Ack {
    std::string phone;
    std::uint32_t seq{0};
    std::uint32_t payloadBytes{0};  ///< Length acked (the open tail segment grows).
};

[[nodiscard]] std::string encodeFrame(const Frame& frame);
/// Decodes and CRC-checks a frame; nullopt on any damage (truncation,
/// corrupted fields, CRC mismatch).
[[nodiscard]] std::optional<Frame> decodeFrame(std::string_view bytes);

[[nodiscard]] std::string encodeAck(const Ack& ack);
[[nodiscard]] std::optional<Ack> decodeAck(std::string_view bytes);

/// Identity fields of a data frame, readable without a CRC pass.
struct FrameHeader {
    std::string_view phone;  ///< Views into the frame bytes.
    std::uint32_t seq{0};
    std::uint64_t payloadBytes{0};
};

/// Cheap header peek for provenance tracking on the wire: no CRC check, no
/// payload copy.  nullopt for anything that is not a well-formed SEGv1
/// header (acks included).
[[nodiscard]] std::optional<FrameHeader> parseFrameHeader(std::string_view bytes);

/// Where one segment's payload lies in the Log File content.
struct SegmentSpan {
    std::size_t offset{0};
    std::size_t length{0};
};

/// Splits Log File content into line-aligned segments of at most
/// `payloadBytes` each (0 counts as 1).  Greedy from the start: a line
/// joins the open segment if it fits, else starts the next one; a line
/// longer than `payloadBytes` gets a segment of its own, and a segment is
/// closed as soon as it is full.  A torn final line (no trailing '\n')
/// still ships.  For append-only content, every segment except the last
/// is stable across calls.
[[nodiscard]] std::vector<SegmentSpan> segmentSpans(std::string_view content,
                                                    std::size_t payloadBytes);

/// segmentSpans() of a file kept across calls, for a reader that splits
/// the same file again and again as it grows.  An append can only grow
/// the last segment or add segments after it, so update() re-splits from
/// the last span's offset while the file's flash rewrite count holds and
/// the file has grown, and from 0 when the count moved or the file shrank.
class SegmentSpanCache {
public:
    explicit SegmentSpanCache(std::size_t payloadBytes) : payloadBytes_{payloadBytes} {}

    /// segmentSpans(content, payloadBytes) for the file's current
    /// `content` and rewrite count (phone::FlashStore::rewrites).
    const std::vector<SegmentSpan>& update(std::string_view content,
                                           std::uint64_t rewrites);

    /// Bytes the cached spans hold on the heap.
    [[nodiscard]] std::size_t heapBytes() const {
        return spans_.capacity() * sizeof(SegmentSpan);
    }

private:
    std::size_t payloadBytes_;
    std::vector<SegmentSpan> spans_;
    std::size_t size_{0};        ///< Content size the spans were split from.
    std::uint64_t rewrites_{0};  ///< Rewrite count at that split.
};

/// The segments of segmentSpans() as frames carrying a copy of their
/// payload, numbered from 0, each with the segment count.
[[nodiscard]] std::vector<Frame> chunkLogContent(const std::string& phone,
                                                 std::string_view content,
                                                 std::size_t payloadBytes);

}  // namespace symfail::transport
