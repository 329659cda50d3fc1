#include "transport/upload_agent.hpp"

#include <algorithm>
#include <utility>

#include "obs/provenance.hpp"
#include "symbos/err.hpp"
#include "symbos/kernel.hpp"

namespace symfail::transport {

constexpr sim::Duration kUploadPeriod = sim::Duration::hours(6);
constexpr std::size_t kChunkPayloadBytes = 2048;
/// Frames sent per round at most; the rest wait for the next firing.
constexpr std::size_t kMaxBatchFrames = 64;
constexpr sim::Duration kRetryBase = sim::Duration::seconds(45);
constexpr sim::Duration kRetryMax = sim::Duration::minutes(30);
/// Uniform jitter applied to every retry delay: factor in
/// [1-jitter, 1+jitter].  Keeps a fleet's retries from phase-locking.
constexpr double kRetryJitter = 0.3;
constexpr int kMaxRetriesPerRound = 8;

UploadAgent::UploadAgent(phone::PhoneDevice& device, logger::FailureLogger& logger,
                         Channel& dataChannel, Channel& ackChannel,
                         UploadPolicy policy, std::uint64_t seed)
    : device_{&device},
      logger_{&logger},
      dataChannel_{&dataChannel},
      ackChannel_{&ackChannel},
      policy_{policy},
      rng_{seed},
      spans_{kChunkPayloadBytes} {
    device_->addBootHook([this]() { onBoot(); });
    device_->addPowerDownHook([this]() { teardown(); });
    ackChannel_->setReceiver(
        [this](const std::string& bytes) { onAckBytes(bytes); });
}

UploadAgent::~UploadAgent() {
    teardown();
}

void UploadAgent::onBoot() {
    attempt_ = 0;
    pid_ = device_->kernel().createProcess("UploadAgent",
                                           symbos::ProcessKind::SystemServer);
    auto& scheduler = device_->kernel().schedulerOf(pid_);
    ao_ = std::make_unique<symbos::FunctionAo>(
        scheduler, "upload-agent",
        [this](symbos::ExecContext& ctx, int status) {
            if (status != symbos::KErrNone) return;
            runRound(ctx);
        });
    timer_ = std::make_unique<symbos::RTimer>(*ao_);
    symbos::RTimer* timer = timer_.get();
    ao_->setCancelFn([timer]() { timer->cancel(); });
    device_->kernel().runInProcess(pid_, [this](symbos::ExecContext& ctx) {
        timer_->after(ctx, kUploadPeriod);
    });
}

void UploadAgent::teardown() {
    timer_.reset();
    ao_.reset();
    pid_ = 0;
    attempt_ = 0;
}

void UploadAgent::onAckBytes(std::string_view bytes) {
    const auto ack = decodeAck(bytes);
    if (!ack || ack->phone != device_->name()) {
        ++stats_.staleAcks;
        return;
    }
    ++stats_.acksReceived;
    if (auto* trace = device_->simulator().traceSink()) {
        const obs::TraceArg args[] = {{"seq", ack->seq},
                                      {"bytes", ack->payloadBytes}};
        trace->instant(device_->traceTrack(), "transport", "ack",
                       device_->simulator().now(), args);
    }
    auto& acked = ackedBytes_[ack->seq];
    acked = std::max(acked, ack->payloadBytes);
}

sim::Duration UploadAgent::nextDelay(bool pendingRemain) {
    if (!pendingRemain || !policy_.retriesEnabled) {
        attempt_ = 0;
        return kUploadPeriod;
    }
    if (attempt_ >= kMaxRetriesPerRound) {
        // Budget exhausted: give up until the next regular round (which
        // re-offers everything unacknowledged).
        ++stats_.retryBudgetExhausted;
        if (auto* trace = device_->simulator().traceSink()) {
            trace->instant(device_->traceTrack(), "transport",
                           "retry-budget-exhausted", device_->simulator().now());
        }
        attempt_ = 0;
        return kUploadPeriod;
    }
    sim::Duration delay = kRetryBase;
    for (int i = 0; i < attempt_; ++i) {
        delay = delay * 2;
        if (delay >= kRetryMax) break;
    }
    delay = std::min(delay, kRetryMax);
    ++attempt_;
    const double jitter = rng_.uniform(1.0 - kRetryJitter, 1.0 + kRetryJitter);
    const auto wait = sim::Duration::fromSecondsF(delay.asSecondsF() * jitter);
    stats_.backoffWait += wait;
    return wait;
}

void UploadAgent::runRound(const symbos::ExecContext& ctx) {
    ++stats_.rounds;
    const std::string& content = logger_->logFileContent();
    const std::vector<SegmentSpan>& spans =
        spans_.update(content, device_->flash().rewrites(logger::kLogFile));
    if (provenance_ != nullptr) {
        provenance_->snapshotEnqueued(content.size(), device_->simulator().now());
    }

    // One frame, refilled for each segment put on the wire: a round copies
    // only the payloads it sends.
    Frame frame;
    frame.phone = device_->name();
    frame.segCount = static_cast<std::uint32_t>(spans.size());
    std::size_t sentThisRound = 0;
    std::size_t pending = 0;
    for (std::uint32_t seq = 0; seq < frame.segCount; ++seq) {
        const SegmentSpan& span = spans[seq];
        const auto ackedIt = ackedBytes_.find(seq);
        const bool satisfied =
            ackedIt != ackedBytes_.end() && ackedIt->second >= span.length;
        if (satisfied) continue;
        ++pending;
        if (sentThisRound >= kMaxBatchFrames) continue;
        ++sentThisRound;

        auto& sent = sentBytes_[seq];
        const bool retransmit = sent >= span.length;
        if (retransmit) ++stats_.retransmits;
        sent = std::max(sent, static_cast<std::uint32_t>(span.length));
        if (provenance_ != nullptr) {
            provenance_->segmentSent(seq, span.offset, span.length, retransmit,
                                     device_->simulator().now());
        }

        frame.seq = seq;
        frame.payload.assign(content, span.offset, span.length);
        std::string bytes = encodeFrame(frame);
        ++stats_.framesSent;
        stats_.bytesSent += bytes.size();
        if (auto* trace = device_->simulator().traceSink()) {
            const obs::TraceArg args[] = {{"seq", frame.seq},
                                          {"bytes", bytes.size()},
                                          {"retransmit", retransmit}};
            trace->instant(device_->traceTrack(), "transport", "segment-send",
                           device_->simulator().now(), args);
        }
        dataChannel_->send(std::move(bytes));
    }

    // Acks for this batch are still in flight; re-check at the next firing.
    // A pure ack-wait uses the retry clock too: if everything is acked by
    // then, that firing degenerates to a no-op round.
    timer_->after(ctx, nextDelay(pending > 0));
}

}  // namespace symfail::transport
