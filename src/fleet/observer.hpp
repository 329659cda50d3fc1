// Campaign observation hooks.
//
// A CampaignObserver taps the collection server's ingest path and follows
// the campaign lifecycle: it learns when the simulation starts (so it can
// schedule its own periodic work on the same simulated clock), when each
// phone enrolls (with a probe into the phone's upload-channel outage
// schedule, so server-side silence can be attributed to transport rather
// than the device), and when the campaign ends.
//
// The contract that keeps campaigns reproducible: an observer is strictly
// read-only with respect to the simulated world.  It may schedule events
// for its own bookkeeping, but it must never mutate device, transport or
// server state and must never draw from any campaign RNG stream — with an
// observer attached, the collected logs and every regenerated table stay
// bit-identical to an unobserved run.
//
// Threads and order.  Each phone runs in a simulator of its own, on a
// worker thread, one window of simulated time at a time; the observer's
// simulator (the one onCampaignBegin hands over) is the fleet's, and only
// the calling thread runs it.  Every callback arrives on the calling
// thread: onFrameAccepted after the phones have run the window that holds
// the frame, in merged time order (time, then phone index, then the
// phone's own order), interleaved with the fleet simulator's events, with
// a phone's frames ahead of fleet events at the same instant.  During a
// callback the fleet simulator's clock reads the frame's instant.  An
// OutageProbe stays a pure function of time: the phone's outage windows
// start no earlier than the instant they are added, so a probe at `t`
// gives the same answer whether or not the phone has run past `t`.
#pragma once

#include <functional>
#include <string>

#include "simkernel/simulator.hpp"
#include "simkernel/time.hpp"
#include "transport/reassembly.hpp"

namespace symfail::obs {
class ProvenanceTracker;
}  // namespace symfail::obs

namespace symfail::fleet {

struct FleetConfig;

/// Probe into a phone's upload-path outage schedule: true when the data
/// channel is inside a scheduled outage window at `t`.  Valid only while
/// the campaign's simulation objects are alive (between onCampaignBegin
/// and the return of runCampaign).
using OutageProbe = std::function<bool(sim::TimePoint)>;

/// Lifecycle + ingest hooks for one campaign.  All default to no-ops so
/// implementations opt into what they need.
class CampaignObserver {
public:
    virtual ~CampaignObserver() = default;

    /// The fleet's simulator exists and the phones are not set up yet; no
    /// event has fired.  `simulator` outlives the campaign run.  Its events
    /// at the origin run before any phone does, so stop() there ends the
    /// campaign with every phone still at the origin.
    virtual void onCampaignBegin(sim::Simulator& /*simulator*/,
                                 const FleetConfig& /*config*/) {}
    /// A phone was added to the fleet; it powers on at `enrollAt`.  The
    /// probe is empty when the campaign runs without transport.
    virtual void onPhoneEnrolled(const std::string& /*phoneName*/,
                                 sim::TimePoint /*enrollAt*/,
                                 OutageProbe /*outageProbe*/) {}
    /// The simulation clock reached campaign end; simulation objects are
    /// still alive.
    virtual void onCampaignEnd(sim::TimePoint /*at*/) {}
    /// A provenance tracker rides this campaign.  Observers that consume
    /// the ingest stream should report their consumption watermark to it
    /// (ProvenanceTracker::monitorConsumed) so records earn their
    /// "alerted" stamp.  Called before onCampaignBegin; the tracker
    /// outlives the campaign run.
    virtual void onProvenanceAttached(obs::ProvenanceTracker* /*tracker*/) {}
    /// Approximate bytes of observer-held state (window buffers, snapshot
    /// history).  Read by the resource accountant's sampling sweep; must
    /// be derived from simulated state only (deterministic).  The default
    /// reports nothing.
    [[nodiscard]] virtual std::uint64_t approxMemoryBytes() const { return 0; }

    /// No caller in src/; kept only for perfbench's StartProbe override.
    virtual void onWholeFile(const std::string& /*phoneName*/,
                             std::string_view /*content*/, bool /*stored*/) {}
    /// A chunked frame decoded cleanly and was filed (duplicates included;
    /// see transport::IngestResult::duplicate).  Observes, in simulated
    /// time, without perturbing storage or acking.
    virtual void onFrameAccepted(const transport::IngestResult& /*frame*/) {}
};

}  // namespace symfail::fleet
