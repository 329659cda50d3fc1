// Log collection server.
//
// The paper's companion tool paper describes an automated infrastructure
// that transfers Log Files off the phones.  This server is its model.  Each
// phone's transport::UploadAgent ships CRC-framed segments of its Log File
// over the unreliable transport channels, and the server files them in a
// transport::Reassembler (duplicate suppression, out-of-order merge,
// gap-safe reconstruction).
//
// `collectedLogs` reconstructs every phone's copy from the chunk maps, so
// analysis can run on uploaded data even for phones that died before
// campaign end, and on partial data for phones whose segments were
// permanently lost.  A campaign gives each phone a server of its own (a
// shard: the chunk maps are keyed by phone and phones never share one),
// so a phone files and acks its frames on its own worker thread.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dataset.hpp"
#include "transport/reassembly.hpp"

namespace symfail::fleet {

/// Collection store: one reassembled copy per phone.
class CollectionServer {
public:
    /// Receives one chunked-transport frame and returns the full
    /// reassembly outcome.  The ack to ship back to the phone is
    /// `result.ack` (nullopt when the frame was rejected as damaged); the
    /// provenance wiring also reads the stored extent and the duplicate
    /// flag.
    transport::IngestResult ingestFrame(std::string_view bytes);

    /// Phones heard from.
    [[nodiscard]] std::size_t phoneCount() const { return reassembler_.phones().size(); }
    [[nodiscard]] bool has(const std::string& phoneName) const {
        return reassembler_.has(phoneName);
    }

    /// The phone's segment coverage; 0.0 for a phone never heard from.
    [[nodiscard]] double coverage(const std::string& phoneName) const {
        return reassembler_.coverage(phoneName);
    }

    /// Snapshot usable by the analysis pipeline: every phone's
    /// reconstructed Log File in name order, with segment coverage
    /// attached for the dataset's coverage-loss accounting.
    [[nodiscard]] std::vector<analysis::PhoneLog> collectedLogs() const;

    [[nodiscard]] const transport::Reassembler& reassembler() const {
        return reassembler_;
    }

    /// Approximate heap footprint of the server (the reassembler's chunk
    /// maps); deterministic for identical upload sequences.
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        return sizeof *this + reassembler_.approxMemoryBytes();
    }

private:
    transport::Reassembler reassembler_;
};

}  // namespace symfail::fleet
