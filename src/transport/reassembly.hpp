// Server-side segment reassembly.
//
// The collection server receives CRC-framed segments in whatever order
// (and multiplicity) the channels produce, keeps a per-phone chunk map,
// and reconstructs the best-effort Log File even when segments are
// permanently lost.  A gap never fuses the half-records on either side:
// reconstruction inserts a newline at every discontinuity, so damage
// stays visible as malformed lines (which the analysis already counts)
// instead of silently becoming a plausible-but-wrong record.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "transport/frame.hpp"

namespace symfail::transport {

/// Ingestion accounting across all phones.
struct ReassemblyStats {
    std::uint64_t framesRejected{0};  ///< CRC mismatch / malformed framing.
    std::uint64_t duplicates{0};      ///< Segment already held (no new bytes).
    std::uint64_t segmentsStored{0};  ///< New segments added to chunk maps.
};

/// Outcome of one frame ingestion, rich enough for a streaming consumer
/// (the fleet-health monitor) to tap the ingest path without decoding the
/// frame a second time.
struct IngestResult {
    /// Acknowledgement to ship back; nullopt when the frame was rejected.
    std::optional<Ack> ack;
    /// Decoded fine but carried no new bytes (pure retransmit).
    bool duplicate{false};
    std::string phone;
    std::uint32_t seq{0};
    std::uint32_t segCount{0};
    /// Full stored content of the segment after this frame (a view into
    /// the reassembler's chunk map — valid until the next ingest call).
    std::string_view payload;
};

/// Per-phone reassembly state and completeness accounting.
class Reassembler {
public:
    /// Feeds raw bytes from a channel.  Duplicates are re-acked: the
    /// retransmit usually means the original ack was lost.
    [[nodiscard]] IngestResult ingest(std::string_view bytes);

    [[nodiscard]] bool has(const std::string& phone) const {
        return assemblies_.contains(phone);
    }

    /// Segments held / highest advertised segment count (1.0 when nothing
    /// was ever advertised, 0.0 for a phone never heard from).
    [[nodiscard]] double coverage(const std::string& phone) const;

    /// Best-effort Log File content: held segments concatenated in
    /// sequence order, with a newline spliced in at every gap so records
    /// torn by a lost segment cannot merge across it.
    [[nodiscard]] std::string reconstruct(const std::string& phone) const;

    [[nodiscard]] const ReassemblyStats& stats() const { return stats_; }

    /// Approximate heap footprint of the chunk maps (phone names, segment
    /// payloads, per-node estimates); deterministic for identical ingest
    /// sequences.
    [[nodiscard]] std::size_t approxMemoryBytes() const;

private:
    struct Assembly {
        std::map<std::uint32_t, std::string> segments;
        std::uint32_t segCount{0};  ///< Highest segCount advertised by any frame.
    };
    std::map<std::string, Assembly> assemblies_;
    ReassemblyStats stats_;
};

}  // namespace symfail::transport
