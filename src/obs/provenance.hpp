// Failure provenance: end-to-end lineage for every logger record.
//
// The paper's methodology (Sec. III) hinges on *trustworthy collection*:
// a panic that never reaches the analysis server is indistinguishable from
// a panic that never happened.  This tracker assigns each record written
// to the phone-side Log File a deterministic provenance identity — the
// pair (phone, per-phone ordinal) — and follows it through every pipeline
// stage:
//
//   created    — serialized into the flash Log File
//   enqueued   — covered by an upload round's chunking snapshot
//   uploaded   — first transmission of a segment covering the record
//   delivered  — a copy of that segment survived the lossy channel
//   reconciled — the collection server stored bytes covering the record
//   alerted    — the streaming monitor consumed the record's bytes
//
// At campaign end each record resolves to a terminal outcome, and the
// tracker enforces a conservation invariant:
//
//   created = delivered + torn + lost-to-wire + lost-to-outage + pending
//
// Duplicate suppression never destroys a unique record, so "dropped-dup"
// is a *copy*-level counter (server-side copies discarded), not an
// outcome bucket.
//
// Identity model: chunking is line-aligned and the serialized Log File is
// append-only between tears, so a record is identified by its byte range
// [offset, offset + length) in the phone's log.  Segment seq numbers map
// ranges on the wire; the tracker joins the two at reconcile time.
//
// The tracker is *passive*: every hook takes an explicit simulated
// timestamp supplied by the caller, draws no randomness, schedules no
// events, and allocates nothing on the simulator's critical path beyond
// its own bookkeeping.  Campaign results are bit-identical with the
// tracker attached or absent.
//
// Limits: `tearTail` on the log is modeled (records beyond the tear point
// resolve as torn); log *rotation* is not — rotation rewrites every byte
// offset and the upload stream restarts mid-campaign, so the tracker
// freezes that phone's lineage (unresolved records finalize as pending).
// Rotation needs an 8 MB log and does not occur in paper-scale campaigns.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journal.hpp"
#include "simkernel/time.hpp"

namespace symfail::obs {

class MetricsRegistry;
class TraceSink;

/// Terminal fate of one record, resolved at `finalize`.
enum class RecordOutcome : std::uint8_t {
    Pending,     ///< Not yet reconciled; no loss observed on its segment.
    Delivered,   ///< Reconciled by the collection server.
    Torn,        ///< Destroyed (fully or partially) by a flash tear.
    LostWire,    ///< Segment copies lost to ordinary channel loss.
    LostOutage,  ///< Segment copies lost while the phone was out of coverage.
};

[[nodiscard]] std::string_view toString(RecordOutcome outcome);

/// Full lineage of one record: identity, per-stage timestamps, outcome.
struct RecordLineage {
    std::uint64_t id{0};      ///< Per-phone ordinal (0-based creation order).
    std::uint64_t offset{0};  ///< Byte offset of the serialized line.
    std::uint32_t length{0};  ///< Line length including the trailing '\n'.
    std::string tag;          ///< Record tag: "PANIC", "BOOT", "HEARTBEAT", …
    sim::TimePoint created;
    std::optional<sim::TimePoint> enqueued;
    std::optional<sim::TimePoint> uploaded;
    std::optional<sim::TimePoint> delivered;
    std::optional<sim::TimePoint> reconciled;
    std::optional<sim::TimePoint> alerted;
    std::uint32_t segment{0};     ///< Seq of the first segment covering it.
    std::uint32_t sendCount{0};   ///< Transmissions (incl. retransmits) covering it.
    bool tornAtSource{false};     ///< Line truncated by a tear before upload.
    bool flowOpen{false};         ///< A trace flow was begun and not yet ended.
    RecordOutcome outcome{RecordOutcome::Pending};
};

/// Exact (not interpolated) quantiles of one stage-to-stage latency.
struct StageLatency {
    std::string stage;
    std::uint64_t count{0};
    double p50{0.0};
    double p95{0.0};
    double p99{0.0};
};

/// Campaign-wide pipeline accounting.
struct PipelineSummary {
    std::uint64_t created{0};
    std::uint64_t delivered{0};
    std::uint64_t torn{0};
    std::uint64_t lostWire{0};
    std::uint64_t lostOutage{0};
    std::uint64_t pending{0};
    std::uint64_t duplicateCopiesDropped{0};  ///< Server-side copy discards.
    std::uint64_t framesRejected{0};          ///< Malformed/CRC-failed frames.
    std::vector<StageLatency> stages;

    /// The conservation invariant this module exists to enforce.
    [[nodiscard]] bool conserved() const {
        return created == delivered + torn + lostWire + lostOutage + pending;
    }
};

/// The tracker.  One instance observes one campaign; hooks are invoked by
/// the flash store, upload agent, channel, collection server and monitor
/// (all behind a null-pointer test, so an unattached campaign pays one
/// branch per hook site).  Not thread-safe: the phone-side hooks reach it
/// through each phone's ProvenanceJournal, which the fleet delivers on the
/// calling thread.
class ProvenanceTracker {
public:
    ProvenanceTracker();

    // ----- phone side -------------------------------------------------
    /// A record of `length` bytes (incl. '\n') was appended at `offset`.
    void recordCreated(const std::string& phone, std::uint64_t offset,
                       std::uint32_t length, std::string_view tag,
                       sim::TimePoint at);
    /// The log was truncated to `newSize` bytes by a flash tear.
    void tailTorn(const std::string& phone, std::uint64_t newSize,
                  sim::TimePoint at);
    /// The log rotated: `cutBytes` were dropped from the front.  Freezes
    /// lineage for this phone (see header comment).
    void prefixRotated(const std::string& phone, std::uint64_t cutBytes,
                       sim::TimePoint at);

    // ----- upload agent -----------------------------------------------
    /// An upload round snapshotted the first `contentBytes` of the log.
    void snapshotEnqueued(const std::string& phone, std::uint64_t contentBytes,
                          sim::TimePoint at);
    /// Segment `seq` covering [offset, offset + payloadBytes) was handed
    /// to the channel (`retransmit` when any byte was sent before).
    void segmentSent(const std::string& phone, std::uint32_t seq,
                     std::uint64_t offset, std::uint64_t payloadBytes,
                     bool retransmit, sim::TimePoint at);

    // ----- channel ----------------------------------------------------
    /// A copy of segment `seq` was dropped (`outage`: while out of coverage).
    void frameLost(const std::string& phone, std::uint32_t seq, bool outage,
                   sim::TimePoint at);
    /// A copy of segment `seq` (first `payloadBytes` of its range) reached
    /// the receiver.
    void frameDelivered(const std::string& phone, std::uint32_t seq,
                        std::uint64_t payloadBytes, sim::TimePoint at);

    // ----- collection server ------------------------------------------
    /// The server ingested segment `seq`; its stored extent is now
    /// `storedBytes`.  `duplicate` marks a copy that added nothing.
    void segmentReconciled(const std::string& phone, std::uint32_t seq,
                           std::uint64_t storedBytes, bool duplicate,
                           sim::TimePoint at);
    /// The server rejected a frame (parse/CRC failure).
    void frameRejected(sim::TimePoint at);

    // ----- monitor ----------------------------------------------------
    /// The streaming monitor has consumed the first `watermark` bytes of
    /// this phone's log stream.
    void monitorConsumed(const std::string& phone, std::uint64_t watermark,
                         sim::TimePoint at);

    // ----- lifecycle --------------------------------------------------
    /// Emit Perfetto flow chains (one causal arrow sequence per failure
    /// record) into `sink`.  Only PANIC/DUMP records flow by default.
    void attachTrace(TraceSink* sink);
    /// Flow every record, not just failures (tests, small campaigns).
    void setFlowAllRecords(bool flowAll) { flowAllRecords_ = flowAll; }

    /// Resolves every record's outcome and computes stage latencies.
    /// Hooks arriving after finalize (e.g. destructor-order stragglers)
    /// are ignored.  Idempotent.
    void finalize(sim::TimePoint at);
    [[nodiscard]] bool finalized() const { return finalized_; }

    // ----- queries (valid after finalize) ------------------------------
    [[nodiscard]] PipelineSummary summary() const;
    [[nodiscard]] std::vector<std::string> phoneNames() const;
    /// Lineage of record `phone#id`; nullptr when unknown.
    [[nodiscard]] const RecordLineage* find(const std::string& phone,
                                            std::uint64_t id) const;
    /// Every record of `phone` that did NOT resolve to Delivered, torn-away
    /// records included, in id order; empty for an unknown phone.
    [[nodiscard]] std::vector<const RecordLineage*> undelivered(
        const std::string& phone) const;

    /// Publishes outcome counters and per-stage latency histograms under
    /// the "provenance" subsystem.
    void publishMetrics(MetricsRegistry& registry) const;

    /// Human-readable pipeline accounting table.
    [[nodiscard]] std::string renderReport() const;
    /// "Why did record X not arrive" — stage-by-stage story of one record.
    [[nodiscard]] std::string explain(const std::string& phone,
                                      std::uint64_t id) const;
    /// Machine-readable summary + undelivered records.
    [[nodiscard]] std::string renderJson() const;

private:
    struct SegmentState {
        std::uint64_t offset{0};  ///< Log offset the segment starts at.
        std::uint32_t wireLost{0};
        std::uint32_t outageLost{0};
    };

    struct PhoneState {
        std::vector<RecordLineage> live;     ///< Sorted by offset.
        std::vector<RecordLineage> retired;  ///< Torn away / rotated out.
        std::map<std::uint32_t, SegmentState> segments;
        std::size_t enqueueCursor{0};  ///< First live record lacking `enqueued`.
        std::size_t alertCursor{0};    ///< First live record lacking `alerted`.
        std::uint64_t nextId{0};
        std::uint32_t track{0};  ///< Trace track (lazy).
        bool trackRegistered{false};
        bool rotated{false};  ///< Lineage frozen; see header comment.
    };

    [[nodiscard]] PhoneState* stateFor(const std::string& phone);
    [[nodiscard]] bool flows(const RecordLineage& rec) const;
    std::uint32_t phoneTrack(const std::string& phone, PhoneState& state);
    void flowStarted(const std::string& phone, PhoneState& state,
                     RecordLineage& rec);
    void flowStepped(std::uint32_t track, const std::string& phone,
                     RecordLineage& rec, sim::TimePoint at);
    /// First live record with offset >= `offset`.
    static std::size_t firstAt(const std::vector<RecordLineage>& records,
                               std::uint64_t offset);
    void resolveOutcomes(sim::TimePoint at);

    std::map<std::string, PhoneState> phones_;
    TraceSink* trace_{nullptr};
    std::uint32_t serverTrack_{0};
    std::uint32_t monitorTrack_{0};
    bool serverTrackRegistered_{false};
    bool monitorTrackRegistered_{false};
    bool flowAllRecords_{false};
    bool finalized_{false};
    sim::TimePoint finalizedAt_;
    std::uint64_t duplicateCopiesDropped_{0};
    std::uint64_t framesRejected_{0};
    std::vector<StageLatency> stages_;  ///< Computed at finalize.
};

/// One phone's provenance hooks, as its flash adapter, upload agent, data
/// channel and server edge call them while the phone runs on a worker.
/// Each hook goes into the phone's journal and reaches the tracker, under
/// the phone's name, when the fleet delivers the journal.
class ProvenanceJournal {
public:
    ProvenanceJournal(ProvenanceTracker& tracker, std::string phone, Journal& journal)
        : tracker_{&tracker}, phone_{std::move(phone)}, journal_{&journal} {}
    ProvenanceJournal(const ProvenanceJournal&) = delete;
    ProvenanceJournal& operator=(const ProvenanceJournal&) = delete;

    void recordCreated(std::uint64_t offset, std::uint32_t length, std::string_view tag,
                       sim::TimePoint at);
    void tailTorn(std::uint64_t newSize, sim::TimePoint at);
    void prefixRotated(std::uint64_t cutBytes, sim::TimePoint at);
    void snapshotEnqueued(std::uint64_t contentBytes, sim::TimePoint at);
    void segmentSent(std::uint32_t seq, std::uint64_t offset, std::uint64_t payloadBytes,
                     bool retransmit, sim::TimePoint at);
    void frameLost(std::uint32_t seq, bool outage, sim::TimePoint at);
    void frameDelivered(std::uint32_t seq, std::uint64_t payloadBytes, sim::TimePoint at);
    void segmentReconciled(std::uint32_t seq, std::uint64_t storedBytes, bool duplicate,
                           sim::TimePoint at);
    void frameRejected(sim::TimePoint at);

private:
    ProvenanceTracker* tracker_;
    std::string phone_;
    Journal* journal_;
};

/// Canonical record name used by the CLI: "<phone>#<id>".
[[nodiscard]] std::string provenanceId(std::string_view phone, std::uint64_t id);

/// Deterministic 64-bit flow id for a record (FNV-1a over the canonical id).
[[nodiscard]] std::uint64_t provenanceFlowId(std::string_view phone,
                                             std::uint64_t id);

}  // namespace symfail::obs
