#include "transport/channel.hpp"

#include <utility>

#include "obs/provenance.hpp"
#include "transport/frame.hpp"

namespace symfail::transport {

/// Frames sent inside an outage window are lost with this probability
/// (1.0: a hard blackout).
constexpr double kOutageLossProb = 1.0;

sim::Histogram makeDeliveryLatencyHistogram() {
    return sim::Histogram::logScale(0.05, 1'000'000.0, 6);
}

ChannelConfig ChannelConfig::gprs() {
    ChannelConfig config;
    config.name = "gprs";
    config.lossProb = 0.05;
    config.dupProb = 0.02;
    config.reorderProb = 0.10;
    config.latencyMedian = sim::Duration::millis(900);
    config.latencySigma = 0.6;
    config.reorderHoldMedian = sim::Duration::seconds(8);
    return config;
}

ChannelConfig ChannelConfig::bluetooth() {
    ChannelConfig config;
    config.name = "bluetooth";
    config.lossProb = 0.02;
    config.dupProb = 0.005;
    config.reorderProb = 0.03;
    config.latencyMedian = sim::Duration::millis(120);
    config.latencySigma = 0.4;
    config.reorderHoldMedian = sim::Duration::seconds(2);
    return config;
}

ChannelConfig ChannelConfig::memoryCard() {
    // A card swap is slow but essentially lossless and ordered.
    ChannelConfig config;
    config.name = "memory-card";
    config.lossProb = 0.0;
    config.dupProb = 0.0;
    config.reorderProb = 0.0;
    config.latencyMedian = sim::Duration::minutes(20);
    config.latencySigma = 0.8;
    return config;
}

Channel::Channel(sim::Simulator& simulator, ChannelConfig config, std::uint64_t seed)
    : simulator_{&simulator}, config_{std::move(config)}, rng_{seed} {}

bool Channel::inOutage(sim::TimePoint t) const {
    for (const auto& window : config_.outages) {
        if (window.contains(t)) return true;
    }
    return false;
}

void Channel::send(std::string bytes) {
    stats_.bytesOffered += bytes.size();

    if (inOutage(simulator_->now()) && rng_.bernoulli(kOutageLossProb)) {
        ++stats_.framesLost;
        ++stats_.outageDrops;
        if (provenance_ != nullptr) {
            if (const auto header = parseFrameHeader(bytes)) {
                provenance_->frameLost(header->seq, /*outage=*/true, simulator_->now());
            }
        }
        if (auto* trace = simulator_->traceSink()) {
            const obs::TraceArg args[] = {{"channel", config_.name},
                                          {"bytes", bytes.size()}};
            trace->instant(traceTrack_, "transport.wire", "outage-drop",
                           simulator_->now(), args);
        }
        return;
    }
    if (rng_.bernoulli(config_.lossProb)) {
        ++stats_.framesLost;
        if (provenance_ != nullptr) {
            if (const auto header = parseFrameHeader(bytes)) {
                provenance_->frameLost(header->seq, /*outage=*/false, simulator_->now());
            }
        }
        if (auto* trace = simulator_->traceSink()) {
            const obs::TraceArg args[] = {{"channel", config_.name},
                                          {"bytes", bytes.size()}};
            trace->instant(traceTrack_, "transport.wire", "frame-lost",
                           simulator_->now(), args);
        }
        return;
    }

    auto drawLatency = [this]() {
        sim::Duration delay =
            rng_.lognormalDuration(config_.latencyMedian, config_.latencySigma);
        if (rng_.bernoulli(config_.reorderProb)) {
            ++stats_.framesReordered;
            delay += rng_.lognormalDuration(config_.reorderHoldMedian,
                                            config_.latencySigma);
        }
        return delay;
    };

    const bool duplicated = rng_.bernoulli(config_.dupProb);
    deliverAfter(bytes, drawLatency());
    if (duplicated) {
        ++stats_.framesDuplicated;
        deliverAfter(bytes, drawLatency());
    }
}

void Channel::deliverAfter(const std::string& bytes, sim::Duration delay) {
    simulator_->scheduleAfter(delay, "transport.wire", [this, bytes, delay]() {
        ++stats_.framesDelivered;
        stats_.bytesDelivered += bytes.size();
        stats_.latency.add(delay.asSecondsF());
        if (provenance_ != nullptr) {
            if (const auto header = parseFrameHeader(bytes)) {
                provenance_->frameDelivered(header->seq, header->payloadBytes,
                                            simulator_->now());
            }
        }
        if (receiver_) receiver_(bytes);
    });
}

}  // namespace symfail::transport
