// The per-phone upload agent.
//
// A Symbian-style active object (one background process per phone, a
// FunctionAo re-arming an RTimer — the same periodic-service idiom as the
// logger's heartbeat) that carries the Log File to the collection server
// over an unreliable channel:
//
//   * each round it splits the Log File into line-aligned segments
//     (transport/frame.hpp) and sends every segment the server has not
//     yet acknowledged, up to a batch limit, as a CRC-framed,
//     sequence-numbered frame.  The split is kept between rounds: a round
//     re-splits only the segments an append can move, the last one and
//     any after it;
//   * unacknowledged segments are retransmitted with exponential backoff
//     plus jitter, up to a per-round retry budget; when the budget runs
//     out the agent gives up until the next regular round (old segments
//     are re-offered forever — only campaign end makes loss permanent);
//   * acknowledgements arrive over their own lossy channel; a lost ack
//     causes a retransmit, which the server answers with a fresh ack
//     (duplicate suppression makes this harmless).
//
// The agent lives and dies with the phone: its AO is created at boot and
// torn down on every power loss, so a dead phone stops uploading — while
// everything already delivered stays on the server, which is the whole
// point of off-device collection.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>

#include "logger/logger.hpp"
#include "phone/device.hpp"
#include "simkernel/time.hpp"
#include "symbos/function_ao.hpp"
#include "symbos/timer.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"

namespace symfail::transport {

/// Upload retry policy.  The round period, chunk size and backoff schedule
/// are constants (upload_agent.cpp).
struct UploadPolicy {
    bool retriesEnabled = true;
};

/// Agent-side effort accounting.
struct UploadAgentStats {
    std::uint64_t rounds{0};
    std::uint64_t framesSent{0};
    std::uint64_t retransmits{0};
    std::uint64_t bytesSent{0};
    std::uint64_t acksReceived{0};
    std::uint64_t staleAcks{0};
    std::uint64_t retryBudgetExhausted{0};
    /// Simulated time spent sitting in exponential-backoff waits (jitter
    /// included); regular upload-period waits are not counted.
    sim::Duration backoffWait{};
};

/// One phone's uploader.
class UploadAgent {
public:
    /// `dataChannel` carries frames to the server; `ackChannel` carries
    /// acks back (the agent installs itself as its receiver).
    UploadAgent(phone::PhoneDevice& device, logger::FailureLogger& logger,
                Channel& dataChannel, Channel& ackChannel, UploadPolicy policy,
                std::uint64_t seed);
    ~UploadAgent();
    UploadAgent(const UploadAgent&) = delete;
    UploadAgent& operator=(const UploadAgent&) = delete;

    [[nodiscard]] const UploadAgentStats& stats() const { return stats_; }

    /// Attaches provenance tracking: each round stamps its chunking
    /// snapshot (enqueued) and every transmitted segment (uploaded) in the
    /// phone's journal.  nullptr detaches; the journal is not owned.
    void setProvenance(obs::ProvenanceJournal* journal) { provenance_ = journal; }

    /// Approximate heap footprint of the agent: the per-segment ack/sent
    /// maps and spans plus the per-boot AO machinery.
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        constexpr std::size_t node =
            sizeof(std::pair<std::uint32_t, std::uint32_t>) + 3 * sizeof(void*);
        return sizeof *this + (ackedBytes_.size() + sentBytes_.size()) * node +
               spans_.heapBytes() +
               (ao_ != nullptr ? sizeof(symbos::FunctionAo) : 0) +
               (timer_ != nullptr ? sizeof(symbos::RTimer) : 0);
    }

private:
    void onBoot();
    void teardown();
    void onAckBytes(std::string_view bytes);
    /// One timer firing: send what is pending, then re-arm.
    void runRound(const symbos::ExecContext& ctx);
    [[nodiscard]] sim::Duration nextDelay(bool pendingRemain);

    phone::PhoneDevice* device_;
    logger::FailureLogger* logger_;
    Channel* dataChannel_;
    Channel* ackChannel_;
    UploadPolicy policy_;
    sim::Rng rng_;

    // Per-boot AO machinery (mirrors the logger's daemon lifecycle).
    symbos::ProcessId pid_{0};
    std::unique_ptr<symbos::FunctionAo> ao_;
    std::unique_ptr<symbos::RTimer> timer_;

    /// The Log File's segments as of the last round.
    SegmentSpanCache spans_;
    /// Bytes acknowledged per segment index (the open tail segment is
    /// re-sent whenever it outgrows its acked length).
    std::map<std::uint32_t, std::uint32_t> ackedBytes_;
    /// Bytes already transmitted at least once per segment, to classify a
    /// send as first transmission vs retransmit.
    std::map<std::uint32_t, std::uint32_t> sentBytes_;
    int attempt_{0};  ///< Retry attempt within the current round; 0 = fresh round.

    UploadAgentStats stats_;
    obs::ProvenanceJournal* provenance_{nullptr};
};

}  // namespace symfail::transport
