// Simulated unreliable transfer channels.
//
// Section 5 of the paper has the Log Files harvested off the phones over
// real-world channels — memory card swaps, Bluetooth to a nearby PC, GPRS
// to the collection point.  None of those are lossless: frames disappear,
// arrive twice, arrive out of order, and whole outage windows (no
// coverage, PC off) swallow everything sent into them.  A Channel models
// one such path deterministically off the simulation kernel: every draw
// comes from its own forked Rng and every delivery is a simulator event,
// so a campaign with transport enabled replays bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simkernel/histogram.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"

namespace symfail::obs {
class ProvenanceJournal;
}  // namespace symfail::obs

namespace symfail::transport {

/// Shared geometry for delivery-latency histograms: log-scale bins from
/// 50 ms to ~11.6 days, 6 bins per decade.  Log spacing resolves the
/// sub-second Bluetooth/GPRS mass and the multi-hour memory-card and
/// outage-retry tails in one histogram (the old linear 0–120 s bins sent
/// every memory-card delivery to the overflow bucket).
[[nodiscard]] sim::Histogram makeDeliveryLatencyHistogram();

/// A scheduled window during which the channel is down (mid-campaign GPRS
/// blackout, collection PC switched off).
struct OutageWindow {
    sim::TimePoint start;
    sim::TimePoint end;
    [[nodiscard]] bool contains(sim::TimePoint t) const { return t >= start && t < end; }
};

/// Channel failure/latency model.
struct ChannelConfig {
    std::string name = "gprs";
    double lossProb = 0.05;     ///< Frame silently dropped.
    double dupProb = 0.02;      ///< Frame delivered twice (independent latency).
    double reorderProb = 0.10;  ///< Frame held back long enough to overtake.
    /// Base one-way latency (lognormal by median/sigma).
    sim::Duration latencyMedian = sim::Duration::millis(900);
    double latencySigma = 0.6;
    /// Extra hold-back applied to reordered frames (lognormal median).
    sim::Duration reorderHoldMedian = sim::Duration::seconds(8);
    std::vector<OutageWindow> outages;

    /// Presets for the three harvest paths the paper's infrastructure used.
    [[nodiscard]] static ChannelConfig gprs();
    [[nodiscard]] static ChannelConfig bluetooth();
    [[nodiscard]] static ChannelConfig memoryCard();
};

/// Wire accounting for one channel.
struct ChannelStats {
    std::uint64_t framesLost{0};
    std::uint64_t framesDuplicated{0};
    std::uint64_t framesDelivered{0};
    std::uint64_t framesReordered{0};
    std::uint64_t outageDrops{0};
    std::uint64_t bytesOffered{0};
    std::uint64_t bytesDelivered{0};
    /// One-way delivery latency in seconds (see makeDeliveryLatencyHistogram).
    sim::Histogram latency{makeDeliveryLatencyHistogram()};
};

/// One simulated unidirectional channel.
class Channel {
public:
    /// Receiver callback: raw frame bytes as they arrive.
    using Receiver = std::function<void(const std::string& bytes)>;

    Channel(sim::Simulator& simulator, ChannelConfig config, std::uint64_t seed);
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    void setReceiver(Receiver receiver) { receiver_ = std::move(receiver); }

    /// Trace track this channel's wire events land on (the owning phone's
    /// track; 0 — the "sim" track — when never set).
    void setTraceTrack(std::uint32_t track) { traceTrack_ = track; }

    /// Attaches provenance tracking: SEGv1 frames report loss and delivery
    /// per segment to the phone's journal (acks and malformed bytes are
    /// ignored).  nullptr detaches; the journal is not owned.
    void setProvenance(obs::ProvenanceJournal* journal) { provenance_ = journal; }

    /// Offers bytes to the channel: they are lost, duplicated, delayed or
    /// delivered per the model.  Safe without a receiver (bytes vanish as
    /// if lost, still counted as offered).
    void send(std::string bytes);

    [[nodiscard]] bool inOutage(sim::TimePoint t) const;
    [[nodiscard]] const ChannelStats& stats() const { return stats_; }

    /// Adds an outage window after construction.  The osfault radio plane
    /// uses this to turn modem events (link drops, resets) into channel
    /// outages, so radio faults flow through the same outage accounting as
    /// scheduled blackouts instead of bypassing the transport model.
    void pushOutage(OutageWindow window) {
        config_.outages.push_back(window);
    }

    /// Approximate heap footprint of the channel object.  In-flight
    /// frames live in scheduled simulator closures and are accounted to
    /// the simkernel's event queue, not here.
    [[nodiscard]] std::size_t approxMemoryBytes() const {
        return sizeof *this + config_.outages.capacity() * sizeof(OutageWindow);
    }

private:
    void deliverAfter(const std::string& bytes, sim::Duration delay);

    sim::Simulator* simulator_;
    ChannelConfig config_;
    sim::Rng rng_;
    Receiver receiver_;
    ChannelStats stats_;
    std::uint32_t traceTrack_{0};
    obs::ProvenanceJournal* provenance_{nullptr};
};

}  // namespace symfail::transport
