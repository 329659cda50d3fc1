#include "obs/provenance.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "obs/fnv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace symfail::obs {
namespace {

constexpr std::string_view kFlowCategory = "provenance";
// Chrome/Perfetto bind flow points by (cat, name, id) — the name must be
// identical at every point of a chain.
constexpr std::string_view kFlowName = "record-flow";

/// "day 12 06:00:01.204" from a simulated timestamp.
std::string formatTime(sim::TimePoint t) {
    const std::int64_t us = t.micros();
    const std::int64_t day = us / 86'400'000'000LL;
    const std::int64_t rem = us % 86'400'000'000LL;
    const auto h = static_cast<int>(rem / 3'600'000'000LL);
    const auto m = static_cast<int>(rem / 60'000'000LL % 60);
    const auto s = static_cast<int>(rem / 1'000'000LL % 60);
    const auto ms = static_cast<int>(rem / 1'000LL % 1'000);
    char buf[48];
    std::snprintf(buf, sizeof buf, "day %lld %02d:%02d:%02d.%03d",
                  static_cast<long long>(day), h, m, s, ms);
    return buf;
}

/// Nearest-rank quantile of an ascending-sorted sample vector.
double exactQuantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    if (rank == 0) rank = 1;
    if (rank > sorted.size()) rank = sorted.size();
    return sorted[rank - 1];
}

/// Seconds between two optional stamps, appended when both are present.
void pushDelta(std::vector<double>& out,
               const std::optional<sim::TimePoint>& from,
               const std::optional<sim::TimePoint>& to) {
    if (from && to) out.push_back((*to - *from).asSecondsF());
}

struct StageDeltas {
    std::vector<double> logToEnqueue;
    std::vector<double> enqueueToUplink;
    std::vector<double> uplinkToDeliver;
    std::vector<double> deliverToReconcile;
    std::vector<double> reconcileToAlert;
    std::vector<double> endToEnd;  ///< created -> reconciled
};

const std::pair<std::string_view, std::vector<double> StageDeltas::*>
    kStageFields[] = {
        {"log->enqueue", &StageDeltas::logToEnqueue},
        {"enqueue->uplink", &StageDeltas::enqueueToUplink},
        {"uplink->deliver", &StageDeltas::uplinkToDeliver},
        {"deliver->reconcile", &StageDeltas::deliverToReconcile},
        {"reconcile->alert", &StageDeltas::reconcileToAlert},
        {"end-to-end", &StageDeltas::endToEnd},
};

/// Log-ish 1-3-10 bucket bounds for stage latencies: 1 ms .. ~11.5 days.
std::vector<double> latencyBounds() {
    std::vector<double> bounds;
    for (double decade = 0.001; decade < 2e6; decade *= 10.0) {
        bounds.push_back(decade);
        bounds.push_back(decade * 3.0);
    }
    return bounds;
}

void appendPercent(std::string& out, std::uint64_t part, std::uint64_t whole) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " (%.1f%%)",
                  whole == 0 ? 0.0
                             : 100.0 * static_cast<double>(part) /
                                   static_cast<double>(whole));
    out += buf;
}

}  // namespace

std::string_view toString(RecordOutcome outcome) {
    switch (outcome) {
        case RecordOutcome::Pending: return "pending";
        case RecordOutcome::Delivered: return "delivered";
        case RecordOutcome::Torn: return "torn";
        case RecordOutcome::LostWire: return "lost-wire";
        case RecordOutcome::LostOutage: return "lost-outage";
    }
    return "?";
}

std::string provenanceId(std::string_view phone, std::uint64_t id) {
    std::string out{phone};
    out += '#';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(id));
    out += buf;
    return out;
}

std::uint64_t provenanceFlowId(std::string_view phone, std::uint64_t id) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "#%llu", static_cast<unsigned long long>(id));
    return fnv1a64(buf, fnv1a64(phone));
}

ProvenanceTracker::ProvenanceTracker() = default;

ProvenanceTracker::PhoneState* ProvenanceTracker::stateFor(
    const std::string& phone) {
    if (finalized_) return nullptr;
    PhoneState& state = phones_[phone];
    return state.rotated ? nullptr : &state;
}

bool ProvenanceTracker::flows(const RecordLineage& rec) const {
    if (trace_ == nullptr) return false;
    return flowAllRecords_ || rec.tag == "PANIC" || rec.tag == "DUMP";
}

std::uint32_t ProvenanceTracker::phoneTrack(const std::string& phone,
                                            PhoneState& state) {
    if (!state.trackRegistered) {
        state.track = trace_->registerTrack(phone);
        state.trackRegistered = true;
    }
    return state.track;
}

void ProvenanceTracker::flowStarted(const std::string& phone, PhoneState& state,
                                    RecordLineage& rec) {
    if (!flows(rec)) return;
    const TraceArg args[] = {{"phone", phone},
                             {"record", rec.id},
                             {"type", rec.tag},
                             {"offset", rec.offset}};
    trace_->flowBegin(phoneTrack(phone, state), kFlowCategory, kFlowName,
                      rec.created, provenanceFlowId(phone, rec.id), args);
    rec.flowOpen = true;
}

void ProvenanceTracker::flowStepped(std::uint32_t track,
                                    const std::string& phone,
                                    RecordLineage& rec, sim::TimePoint at) {
    if (!rec.flowOpen || trace_ == nullptr) return;
    trace_->flowStep(track, kFlowCategory, kFlowName, at,
                     provenanceFlowId(phone, rec.id));
}

std::size_t ProvenanceTracker::firstAt(const std::vector<RecordLineage>& records,
                                       std::uint64_t offset) {
    const auto it = std::lower_bound(
        records.begin(), records.end(), offset,
        [](const RecordLineage& r, std::uint64_t v) { return r.offset < v; });
    return static_cast<std::size_t>(it - records.begin());
}

void ProvenanceTracker::recordCreated(const std::string& phone,
                                      std::uint64_t offset, std::uint32_t length,
                                      std::string_view tag, sim::TimePoint at) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    assert(state->live.empty() || state->live.back().offset < offset);
    RecordLineage rec;
    rec.id = state->nextId++;
    rec.offset = offset;
    rec.length = length;
    rec.tag = tag;
    rec.created = at;
    state->live.push_back(std::move(rec));
    flowStarted(phone, *state, state->live.back());
}

void ProvenanceTracker::tailTorn(const std::string& phone, std::uint64_t newSize,
                                 sim::TimePoint /*at*/) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    while (!state->live.empty() && state->live.back().offset >= newSize) {
        RecordLineage& rec = state->live.back();
        rec.outcome = RecordOutcome::Torn;
        state->retired.push_back(std::move(rec));
        state->live.pop_back();
    }
    if (!state->live.empty()) {
        RecordLineage& last = state->live.back();
        if (last.offset + last.length > newSize) {
            // The tear cut through the middle of this record's line.
            last.length = static_cast<std::uint32_t>(newSize - last.offset);
            last.tornAtSource = true;
        }
    }
    state->enqueueCursor = std::min(state->enqueueCursor, state->live.size());
    state->alertCursor = std::min(state->alertCursor, state->live.size());
}

void ProvenanceTracker::prefixRotated(const std::string& phone,
                                      std::uint64_t /*cutBytes*/,
                                      sim::TimePoint /*at*/) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    state->rotated = true;
}

void ProvenanceTracker::snapshotEnqueued(const std::string& phone,
                                         std::uint64_t contentBytes,
                                         sim::TimePoint at) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    auto& records = state->live;
    while (state->enqueueCursor < records.size()) {
        RecordLineage& rec = records[state->enqueueCursor];
        if (rec.offset + rec.length > contentBytes) break;
        if (!rec.enqueued) rec.enqueued = at;
        ++state->enqueueCursor;
    }
}

void ProvenanceTracker::segmentSent(const std::string& phone, std::uint32_t seq,
                                    std::uint64_t offset,
                                    std::uint64_t payloadBytes, bool /*retransmit*/,
                                    sim::TimePoint at) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    state->segments[seq].offset = offset;
    const std::uint64_t end = offset + payloadBytes;
    auto& records = state->live;
    for (std::size_t i = firstAt(records, offset); i < records.size(); ++i) {
        RecordLineage& rec = records[i];
        if (rec.offset + rec.length > end) break;
        ++rec.sendCount;
        if (!rec.uploaded) {
            rec.uploaded = at;
            rec.segment = seq;
            if (rec.flowOpen) flowStepped(phoneTrack(phone, *state), phone, rec, at);
        }
    }
}

void ProvenanceTracker::frameLost(const std::string& phone, std::uint32_t seq,
                                  bool outage, sim::TimePoint /*at*/) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    const auto it = state->segments.find(seq);
    if (it == state->segments.end()) return;
    if (outage) {
        ++it->second.outageLost;
    } else {
        ++it->second.wireLost;
    }
}

void ProvenanceTracker::frameDelivered(const std::string& phone,
                                       std::uint32_t seq,
                                       std::uint64_t payloadBytes,
                                       sim::TimePoint at) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    const auto it = state->segments.find(seq);
    if (it == state->segments.end()) return;
    const SegmentState& seg = it->second;
    const std::uint64_t end = seg.offset + payloadBytes;
    auto& records = state->live;
    for (std::size_t i = firstAt(records, seg.offset); i < records.size(); ++i) {
        RecordLineage& rec = records[i];
        if (rec.offset + rec.length > end) break;
        if (!rec.delivered) rec.delivered = at;
    }
}

void ProvenanceTracker::segmentReconciled(const std::string& phone,
                                          std::uint32_t seq,
                                          std::uint64_t storedBytes,
                                          bool duplicate, sim::TimePoint at) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    const auto it = state->segments.find(seq);
    if (it == state->segments.end()) return;
    const SegmentState& seg = it->second;
    if (duplicate) {
        ++duplicateCopiesDropped_;
        return;
    }
    const std::uint64_t end = seg.offset + storedBytes;
    auto& records = state->live;
    for (std::size_t i = firstAt(records, seg.offset); i < records.size(); ++i) {
        RecordLineage& rec = records[i];
        if (rec.offset + rec.length > end) break;
        if (!rec.reconciled) {
            rec.reconciled = at;
            if (rec.flowOpen) {
                if (!serverTrackRegistered_) {
                    serverTrack_ = trace_->registerTrack("collection-server");
                    serverTrackRegistered_ = true;
                }
                flowStepped(serverTrack_, phone, rec, at);
            }
        }
    }
}

void ProvenanceTracker::frameRejected(sim::TimePoint /*at*/) {
    if (finalized_) return;
    ++framesRejected_;
}

void ProvenanceTracker::monitorConsumed(const std::string& phone,
                                        std::uint64_t watermark,
                                        sim::TimePoint at) {
    PhoneState* state = stateFor(phone);
    if (state == nullptr) return;
    auto& records = state->live;
    while (state->alertCursor < records.size()) {
        RecordLineage& rec = records[state->alertCursor];
        if (rec.offset + rec.length > watermark) break;
        if (!rec.alerted) {
            rec.alerted = at;
            if (rec.flowOpen) {
                if (!monitorTrackRegistered_) {
                    monitorTrack_ = trace_->registerTrack("monitor");
                    monitorTrackRegistered_ = true;
                }
                trace_->flowEnd(monitorTrack_, kFlowCategory, kFlowName, at,
                                provenanceFlowId(phone, rec.id));
                rec.flowOpen = false;
            }
        }
        ++state->alertCursor;
    }
}

void ProvenanceTracker::attachTrace(TraceSink* sink) { trace_ = sink; }

void ProvenanceJournal::recordCreated(std::uint64_t offset, std::uint32_t length,
                                      std::string_view tag, sim::TimePoint at) {
    journal_->push_back({at, [this, offset, length, tag = std::string{tag}, at]() {
                             tracker_->recordCreated(phone_, offset, length, tag, at);
                         }});
}

void ProvenanceJournal::tailTorn(std::uint64_t newSize, sim::TimePoint at) {
    journal_->push_back(
        {at, [this, newSize, at]() { tracker_->tailTorn(phone_, newSize, at); }});
}

void ProvenanceJournal::prefixRotated(std::uint64_t cutBytes, sim::TimePoint at) {
    journal_->push_back(
        {at, [this, cutBytes, at]() { tracker_->prefixRotated(phone_, cutBytes, at); }});
}

void ProvenanceJournal::snapshotEnqueued(std::uint64_t contentBytes, sim::TimePoint at) {
    journal_->push_back({at, [this, contentBytes, at]() {
                             tracker_->snapshotEnqueued(phone_, contentBytes, at);
                         }});
}

void ProvenanceJournal::segmentSent(std::uint32_t seq, std::uint64_t offset,
                                    std::uint64_t payloadBytes, bool retransmit,
                                    sim::TimePoint at) {
    journal_->push_back({at, [this, seq, offset, payloadBytes, retransmit, at]() {
                             tracker_->segmentSent(phone_, seq, offset, payloadBytes,
                                                   retransmit, at);
                         }});
}

void ProvenanceJournal::frameLost(std::uint32_t seq, bool outage, sim::TimePoint at) {
    journal_->push_back(
        {at, [this, seq, outage, at]() { tracker_->frameLost(phone_, seq, outage, at); }});
}

void ProvenanceJournal::frameDelivered(std::uint32_t seq, std::uint64_t payloadBytes,
                                       sim::TimePoint at) {
    journal_->push_back({at, [this, seq, payloadBytes, at]() {
                             tracker_->frameDelivered(phone_, seq, payloadBytes, at);
                         }});
}

void ProvenanceJournal::segmentReconciled(std::uint32_t seq, std::uint64_t storedBytes,
                                          bool duplicate, sim::TimePoint at) {
    journal_->push_back({at, [this, seq, storedBytes, duplicate, at]() {
                             tracker_->segmentReconciled(phone_, seq, storedBytes,
                                                         duplicate, at);
                         }});
}

void ProvenanceJournal::frameRejected(sim::TimePoint at) {
    journal_->push_back({at, [this, at]() { tracker_->frameRejected(at); }});
}

void ProvenanceTracker::resolveOutcomes(sim::TimePoint /*at*/) {
    for (auto& [phone, state] : phones_) {
        for (RecordLineage& rec : state.live) {
            if (rec.tornAtSource) {
                rec.outcome = RecordOutcome::Torn;
            } else if (rec.reconciled) {
                rec.outcome = RecordOutcome::Delivered;
            } else if (!rec.uploaded) {
                rec.outcome = RecordOutcome::Pending;
            } else {
                // Attribute by the fate of the covering segment's copies.
                const auto it = state.segments.find(rec.segment);
                if (it != state.segments.end() && it->second.outageLost > 0) {
                    rec.outcome = RecordOutcome::LostOutage;
                } else if (it != state.segments.end() &&
                           it->second.wireLost > 0) {
                    rec.outcome = RecordOutcome::LostWire;
                } else {
                    rec.outcome = RecordOutcome::Pending;
                }
            }
        }
    }
}

namespace {

StageDeltas collectStageDeltas(
    const std::map<std::string, std::vector<const RecordLineage*>>& byPhone) {
    StageDeltas deltas;
    for (const auto& [phone, records] : byPhone) {
        for (const RecordLineage* rec : records) {
            pushDelta(deltas.logToEnqueue, rec->created, rec->enqueued);
            pushDelta(deltas.enqueueToUplink, rec->enqueued, rec->uploaded);
            pushDelta(deltas.uplinkToDeliver, rec->uploaded, rec->delivered);
            pushDelta(deltas.deliverToReconcile, rec->delivered, rec->reconciled);
            pushDelta(deltas.reconcileToAlert, rec->reconciled, rec->alerted);
            pushDelta(deltas.endToEnd, rec->created, rec->reconciled);
        }
    }
    return deltas;
}

}  // namespace

void ProvenanceTracker::finalize(sim::TimePoint at) {
    if (finalized_) return;
    finalizedAt_ = at;
    resolveOutcomes(at);
    // Close flows that never reached the monitor so every begun chain has
    // a terminal point in the trace.
    for (auto& [phone, state] : phones_) {
        auto close = [&](RecordLineage& rec) {
            if (!rec.flowOpen || trace_ == nullptr) return;
            std::uint32_t track = phoneTrack(phone, state);
            if (rec.reconciled && serverTrackRegistered_) track = serverTrack_;
            trace_->flowEnd(track, kFlowCategory, kFlowName, at,
                            provenanceFlowId(phone, rec.id));
            rec.flowOpen = false;
        };
        for (RecordLineage& rec : state.live) close(rec);
        for (RecordLineage& rec : state.retired) close(rec);
    }
    // Stage latency quantiles over every record with both stamps.
    std::map<std::string, std::vector<const RecordLineage*>> byPhone;
    for (const auto& [phone, state] : phones_) {
        auto& records = byPhone[phone];
        for (const RecordLineage& rec : state.live) records.push_back(&rec);
        for (const RecordLineage& rec : state.retired) records.push_back(&rec);
    }
    StageDeltas deltas = collectStageDeltas(byPhone);
    stages_.clear();
    for (const auto& [name, field] : kStageFields) {
        std::vector<double>& samples = deltas.*field;
        std::sort(samples.begin(), samples.end());
        StageLatency stage;
        stage.stage = name;
        stage.count = samples.size();
        stage.p50 = exactQuantile(samples, 0.50);
        stage.p95 = exactQuantile(samples, 0.95);
        stage.p99 = exactQuantile(samples, 0.99);
        stages_.push_back(std::move(stage));
    }
    finalized_ = true;
}

PipelineSummary ProvenanceTracker::summary() const {
    PipelineSummary out;
    for (const auto& [phone, state] : phones_) {
        auto tally = [&out](const RecordLineage& rec) {
            ++out.created;
            switch (rec.outcome) {
                case RecordOutcome::Pending: ++out.pending; break;
                case RecordOutcome::Delivered: ++out.delivered; break;
                case RecordOutcome::Torn: ++out.torn; break;
                case RecordOutcome::LostWire: ++out.lostWire; break;
                case RecordOutcome::LostOutage: ++out.lostOutage; break;
            }
        };
        for (const RecordLineage& rec : state.live) tally(rec);
        for (const RecordLineage& rec : state.retired) tally(rec);
    }
    out.duplicateCopiesDropped = duplicateCopiesDropped_;
    out.framesRejected = framesRejected_;
    out.stages = stages_;
    return out;
}

std::vector<std::string> ProvenanceTracker::phoneNames() const {
    std::vector<std::string> out;
    out.reserve(phones_.size());
    for (const auto& [phone, state] : phones_) out.push_back(phone);
    return out;
}

const RecordLineage* ProvenanceTracker::find(const std::string& phone,
                                             std::uint64_t id) const {
    const auto it = phones_.find(phone);
    if (it == phones_.end()) return nullptr;
    for (const RecordLineage& rec : it->second.live) {
        if (rec.id == id) return &rec;
    }
    for (const RecordLineage& rec : it->second.retired) {
        if (rec.id == id) return &rec;
    }
    return nullptr;
}

std::vector<const RecordLineage*> ProvenanceTracker::undelivered(
    const std::string& phone) const {
    std::vector<const RecordLineage*> out;
    const auto it = phones_.find(phone);
    if (it == phones_.end()) return out;
    for (const auto* records : {&it->second.live, &it->second.retired}) {
        for (const RecordLineage& rec : *records) {
            if (rec.outcome != RecordOutcome::Delivered) out.push_back(&rec);
        }
    }
    std::sort(out.begin(), out.end(), [](const RecordLineage* a, const RecordLineage* b) {
        return a->id < b->id;
    });
    return out;
}

void ProvenanceTracker::publishMetrics(MetricsRegistry& registry) const {
    const PipelineSummary sum = summary();
    const std::pair<std::string_view, std::uint64_t> outcomes[] = {
        {"delivered", sum.delivered}, {"torn", sum.torn},
        {"lost_wire", sum.lostWire},  {"lost_outage", sum.lostOutage},
        {"pending", sum.pending},
    };
    registry.counter("provenance", "records_created", "Records written to phone logs")
        .inc(sum.created);
    for (const auto& [name, value] : outcomes) {
        registry
            .counter("provenance", "records_outcome", "outcome", name,
                     "Records by terminal outcome")
            .inc(value);
    }
    registry
        .counter("provenance", "duplicate_copies_dropped",
                 "Server-side duplicate segment copies discarded")
        .inc(sum.duplicateCopiesDropped);
    registry.counter("provenance", "frames_rejected", "Frames failing parse/CRC")
        .inc(sum.framesRejected);
    registry
        .gauge("provenance", "conservation_ok",
               "1 when created = delivered + torn + lost + pending")
        .set(sum.conserved() ? 1.0 : 0.0);

    std::map<std::string, std::vector<const RecordLineage*>> byPhone;
    for (const auto& [phone, state] : phones_) {
        auto& records = byPhone[phone];
        for (const RecordLineage& rec : state.live) records.push_back(&rec);
        for (const RecordLineage& rec : state.retired) records.push_back(&rec);
    }
    const StageDeltas deltas = collectStageDeltas(byPhone);
    const std::pair<std::string_view, const std::vector<double> StageDeltas::*>
        histograms[] = {
            {"latency_log_to_enqueue_seconds", &StageDeltas::logToEnqueue},
            {"latency_enqueue_to_uplink_seconds", &StageDeltas::enqueueToUplink},
            {"latency_uplink_to_deliver_seconds", &StageDeltas::uplinkToDeliver},
            {"latency_deliver_to_reconcile_seconds",
             &StageDeltas::deliverToReconcile},
            {"latency_reconcile_to_alert_seconds", &StageDeltas::reconcileToAlert},
            {"latency_end_to_end_seconds", &StageDeltas::endToEnd},
        };
    for (const auto& [name, field] : histograms) {
        HistogramMetric& h = registry.histogram(
            "provenance", name, latencyBounds(), "Per-stage pipeline latency");
        for (const double v : deltas.*field) h.observe(v);
    }
}

std::string ProvenanceTracker::renderReport() const {
    const PipelineSummary sum = summary();
    std::string out = "provenance pipeline report\n";
    char buf[160];
    const std::pair<const char*, std::uint64_t> rows[] = {
        {"records created", sum.created}, {"delivered", sum.delivered},
        {"torn at source", sum.torn},     {"lost (wire)", sum.lostWire},
        {"lost (outage)", sum.lostOutage}, {"pending at end", sum.pending},
    };
    for (const auto& [label, value] : rows) {
        std::snprintf(buf, sizeof buf, "  %-28s %10llu", label,
                      static_cast<unsigned long long>(value));
        out += buf;
        if (value != sum.created) appendPercent(out, value, sum.created);
        out += '\n';
    }
    std::snprintf(buf, sizeof buf, "  %-28s %10llu\n",
                  "duplicate copies dropped",
                  static_cast<unsigned long long>(sum.duplicateCopiesDropped));
    out += buf;
    std::snprintf(buf, sizeof buf, "  %-28s %10llu\n", "frames rejected",
                  static_cast<unsigned long long>(sum.framesRejected));
    out += buf;
    std::snprintf(
        buf, sizeof buf,
        "  conservation %s (%llu = %llu + %llu + %llu + %llu + %llu)\n",
        sum.conserved() ? "OK" : "VIOLATED",
        static_cast<unsigned long long>(sum.created),
        static_cast<unsigned long long>(sum.delivered),
        static_cast<unsigned long long>(sum.torn),
        static_cast<unsigned long long>(sum.lostWire),
        static_cast<unsigned long long>(sum.lostOutage),
        static_cast<unsigned long long>(sum.pending));
    out += buf;
    if (!sum.stages.empty()) {
        out += "  stage latencies (seconds)\n";
        std::snprintf(buf, sizeof buf, "    %-22s %8s %10s %10s %10s\n", "stage",
                      "count", "p50", "p95", "p99");
        out += buf;
        for (const StageLatency& stage : sum.stages) {
            std::snprintf(buf, sizeof buf, "    %-22s %8llu %10.3g %10.3g %10.3g\n",
                          stage.stage.c_str(),
                          static_cast<unsigned long long>(stage.count), stage.p50,
                          stage.p95, stage.p99);
            out += buf;
        }
    }
    return out;
}

std::string ProvenanceTracker::explain(const std::string& phone,
                                       std::uint64_t id) const {
    const RecordLineage* rec = find(phone, id);
    if (rec == nullptr) {
        return "record " + provenanceId(phone, id) + ": unknown\n";
    }
    std::string out = "record " + provenanceId(phone, id) + " — " + rec->tag;
    char buf[200];
    std::snprintf(buf, sizeof buf, ", %u bytes at log offset %llu\n",
                  rec->length, static_cast<unsigned long long>(rec->offset));
    out += buf;
    auto stamp = [&](const char* label, const std::optional<sim::TimePoint>& at,
                     const std::string& note) {
        if (at) {
            out += "  ";
            std::snprintf(buf, sizeof buf, "%-12s %s", label,
                          formatTime(*at).c_str());
            out += buf;
            if (!note.empty()) out += "  " + note;
            out += '\n';
        } else {
            std::snprintf(buf, sizeof buf, "  %-12s —\n", label);
            out += buf;
        }
    };
    stamp("created", rec->created, {});
    stamp("enqueued", rec->enqueued, {});
    std::string uploadNote;
    if (rec->uploaded) {
        std::snprintf(buf, sizeof buf, "segment %u, %u transmission(s)",
                      rec->segment, rec->sendCount);
        uploadNote = buf;
    }
    stamp("uploaded", rec->uploaded, uploadNote);
    std::string wireNote;
    if (rec->uploaded && rec->delivered) {
        std::snprintf(buf, sizeof buf, "(wire %.3g s)",
                      (*rec->delivered - *rec->uploaded).asSecondsF());
        wireNote = buf;
    }
    stamp("delivered", rec->delivered, wireNote);
    stamp("reconciled", rec->reconciled, {});
    stamp("alerted", rec->alerted, {});
    out += "  outcome: ";
    out += toString(rec->outcome);
    out += '\n';
    switch (rec->outcome) {
        case RecordOutcome::Delivered:
            break;
        case RecordOutcome::Torn:
            out += "  a flash tear truncated this record before a complete "
                   "copy was reconciled\n";
            break;
        case RecordOutcome::LostWire:
            std::snprintf(buf, sizeof buf,
                          "  copies of segment %u were lost to channel noise; "
                          "none covering this record reached the server\n",
                          rec->segment);
            out += buf;
            break;
        case RecordOutcome::LostOutage:
            std::snprintf(buf, sizeof buf,
                          "  copies of segment %u were dropped while the phone "
                          "was out of coverage\n",
                          rec->segment);
            out += buf;
            break;
        case RecordOutcome::Pending:
            out += rec->uploaded
                       ? "  a copy was still in flight (or the server's stored "
                         "extent stopped short) at campaign end\n"
                       : "  the record was still awaiting its first upload "
                         "round at campaign end\n";
            break;
    }
    return out;
}

std::string ProvenanceTracker::renderJson() const {
    const PipelineSummary sum = summary();
    char buf[200];
    std::string out = "{\"summary\":{";
    std::snprintf(buf, sizeof buf,
                  "\"created\":%llu,\"delivered\":%llu,\"torn\":%llu,"
                  "\"lost_wire\":%llu,\"lost_outage\":%llu,\"pending\":%llu,"
                  "\"duplicate_copies_dropped\":%llu,\"frames_rejected\":%llu,"
                  "\"conserved\":%s}",
                  static_cast<unsigned long long>(sum.created),
                  static_cast<unsigned long long>(sum.delivered),
                  static_cast<unsigned long long>(sum.torn),
                  static_cast<unsigned long long>(sum.lostWire),
                  static_cast<unsigned long long>(sum.lostOutage),
                  static_cast<unsigned long long>(sum.pending),
                  static_cast<unsigned long long>(sum.duplicateCopiesDropped),
                  static_cast<unsigned long long>(sum.framesRejected),
                  sum.conserved() ? "true" : "false");
    out += buf;
    out += ",\"stages\":[";
    bool first = true;
    for (const StageLatency& stage : sum.stages) {
        if (!first) out += ',';
        first = false;
        out += "{\"stage\":\"";
        appendJsonEscaped(out, stage.stage);
        std::snprintf(buf, sizeof buf,
                      "\",\"count\":%llu,\"p50_s\":%.10g,\"p95_s\":%.10g,"
                      "\"p99_s\":%.10g}",
                      static_cast<unsigned long long>(stage.count), stage.p50,
                      stage.p95, stage.p99);
        out += buf;
    }
    out += "],\"undelivered\":[";
    first = true;
    for (const auto& [phone, state] : phones_) {
        for (const RecordLineage* rec : undelivered(phone)) {
            if (!first) out += ',';
            first = false;
            out += "{\"id\":\"";
            appendJsonEscaped(out, provenanceId(phone, rec->id));
            out += "\",\"type\":\"";
            appendJsonEscaped(out, rec->tag);
            std::snprintf(buf, sizeof buf,
                          "\",\"outcome\":\"%s\",\"created_s\":%.10g,"
                          "\"transmissions\":%u}",
                          std::string{toString(rec->outcome)}.c_str(),
                          rec->created.asSecondsF(), rec->sendCount);
            out += buf;
        }
    }
    out += "]}\n";
    return out;
}

}  // namespace symfail::obs
