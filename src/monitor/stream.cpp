#include "monitor/stream.hpp"

#include <algorithm>

namespace symfail::monitor {

std::string SegmentTap::push(std::uint32_t seq, std::uint32_t segCount,
                             std::string_view payload, sim::TimePoint at) {
    maxSegCount_ = std::max(maxSegCount_, segCount);
    if (seq < nextSeq_) return drain(at);  // already released and retired

    Segment& segment = pending_[seq];
    if (payload.size() > segment.bytes.size()) {
        segment.bytes.assign(payload);
    }
    // The frame's own segCount names the snapshot it was cut from: a later
    // segment in that snapshot means this one was closed at this length.
    if (segCount >= seq + 2) segment.closedProven = true;
    segment.lastFrameAt = at;
    return drain(at);
}

std::string SegmentTap::poll(sim::TimePoint at) {
    return drain(at);
}

std::string SegmentTap::flush() {
    // End of stream: no further frame can arrive, so the copy held of
    // every contiguous segment is the final one; only a true gap (a
    // missing segment) still stops the release — recovering past a gap is
    // the batch reconstruction's job, not the tap's.
    std::string out;
    for (;;) {
        const auto it = pending_.find(nextSeq_);
        if (it == pending_.end()) break;
        Segment& segment = it->second;
        if (segment.bytes.size() > consumed_) {
            out.append(segment.bytes, consumed_, segment.bytes.npos);
        }
        pending_.erase(it);
        ++nextSeq_;
        consumed_ = 0;
        settleArmedAt_.reset();
    }
    bytesReleased_ += out.size();
    return out;
}

std::string SegmentTap::drain(sim::TimePoint at) {
    std::string out;
    for (;;) {
        const auto it = pending_.find(nextSeq_);
        if (it == pending_.end()) break;
        Segment& segment = it->second;

        // Release growth: any received prefix of the tail is final bytes
        // (append-only chunking), so stream it straight through.
        if (segment.bytes.size() > consumed_) {
            out.append(segment.bytes, consumed_, segment.bytes.npos);
            consumed_ = segment.bytes.size();
        }

        // Retire the segment only once its final copy provably arrived.
        // The settle path covers the rare segment that filled exactly to
        // capacity: its last frame still advertised it as the tail, and a
        // successful ack means no longer copy will ever be offered — after
        // a quiet settle window with a later segment known, call it final.
        // The settle clock starts when the later segment first became
        // known, NOT from the held copy's (possibly days-old) last frame:
        // within one upload round the later segment's frame can overtake
        // the grown closing copy of this one, and retiring on that first
        // news would freeze the stale short copy for good.
        const bool laterSegmentKnown = maxSegCount_ >= nextSeq_ + 2;
        if (laterSegmentKnown && !settleArmedAt_) settleArmedAt_ = at;
        const bool settled = laterSegmentKnown && settleArmedAt_ &&
                             at - *settleArmedAt_ >= kSettleTimeout &&
                             at - segment.lastFrameAt >= kSettleTimeout;
        if (!segment.closedProven && !settled) break;

        pending_.erase(it);
        ++nextSeq_;
        consumed_ = 0;
        settleArmedAt_.reset();  // the settle window is per front segment
    }
    bytesReleased_ += out.size();
    return out;
}

std::string LineBuffer::feed(std::string_view bytes) {
    buffer_.append(bytes);
    const auto lastNewline = buffer_.rfind('\n');
    if (lastNewline == std::string::npos) return {};
    std::string complete = buffer_.substr(0, lastNewline + 1);
    buffer_.erase(0, lastNewline + 1);
    return complete;
}

}  // namespace symfail::monitor
