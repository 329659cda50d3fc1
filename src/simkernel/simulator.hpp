// The discrete-event simulator driving every campaign.
//
// Single-threaded and deterministic: given the same seed and configuration,
// a campaign replays bit-identically.  Components schedule closures at
// absolute or relative simulated times; the simulator advances the clock to
// each event in order and runs it.  One thread drives a simulator at a
// time; a fleet gives each phone its own and one more to its observers.
#pragma once

#include <cstdint>

#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "simkernel/event_queue.hpp"
#include "simkernel/time.hpp"

namespace symfail::sim {

/// Discrete-event simulation engine.
class Simulator {
public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    [[nodiscard]] TimePoint now() const { return now_; }

    /// Schedules an action at an absolute simulated time.  Scheduling in
    /// the past is clamped to "immediately" (fires at the current time,
    /// after already-pending same-time events).  The optional `category`
    /// overloads label the event for tracing and profiling; the string must
    /// outlive the event (use string literals).
    EventId scheduleAt(TimePoint at, EventQueue::Action action);
    EventId scheduleAt(TimePoint at, const char* category, EventQueue::Action action);

    /// Schedules an action `delay` after the current time; negative delays
    /// clamp to zero.  A recurring event is an action that schedules its
    /// successor after it runs.
    EventId scheduleAfter(Duration delay, const char* category,
                          EventQueue::Action action);

    bool cancel(EventId id) { return queue_.cancel(id); }

    /// Runs until the queue drains or the clock passes `until` (events at
    /// exactly `until` still fire).  Afterwards the clock reads `until`
    /// unless an event moved it further.  Returns events fired.
    std::uint64_t runUntil(TimePoint until);

    /// Runs the events strictly before `until` and leaves the clock at
    /// `until`, with its events still pending.  A fleet runs a window this
    /// way, so that what happens at the window's end happens in the next
    /// one.  Returns events fired.
    std::uint64_t runBefore(TimePoint until);

    /// Runs until the queue drains completely.
    std::uint64_t runAll();

    /// Requests that the run loop return after the current event.
    void stop() { stopRequested_ = true; }
    /// True when the last run returned because of stop().
    [[nodiscard]] bool stopRequested() const { return stopRequested_; }

    /// True while an event's action runs.  Work derived lazily uses it to
    /// tell a call from inside an event at now(), where events queued
    /// later for the same instant have yet to run, from a call between
    /// runs, where every event at now() has run.
    [[nodiscard]] bool dispatching() const { return dispatching_; }

    [[nodiscard]] std::uint64_t eventsFired() const { return fired_; }
    [[nodiscard]] std::size_t pendingEvents() const { return queue_.size(); }

    /// Largest pending-event count seen at any dispatch (including the
    /// event being dispatched).  Always tracked — it is one integer max
    /// per event — so capacity reports never need a profiler attached.
    [[nodiscard]] std::size_t queueDepthPeak() const { return queueDepthPeak_; }
    /// Approximate bytes held by the pending-event set (see
    /// EventQueue::approxBytes); deterministic for identical schedules.
    [[nodiscard]] std::size_t queueApproxBytes() const {
        return queue_.approxBytes();
    }

    /// Attaches a trace sink (non-owning; nullptr detaches).  Dispatch
    /// emits one instant per categorised event on track 0; components read
    /// the sink through traceSink() to emit their own events.
    void setTraceSink(obs::TraceSink* sink) { trace_ = sink; }
    [[nodiscard]] obs::TraceSink* traceSink() const { return trace_; }

    /// Attaches a campaign profiler (non-owning; nullptr detaches).  Each
    /// dispatched event is then bracketed with a host-clock measurement.
    void setProfiler(obs::CampaignProfiler* profiler) { profiler_ = profiler; }

private:
    /// Advances the clock to the fired event and runs it, with tracing and
    /// profiling when attached.
    void dispatch(EventQueue::Fired& fired);
    /// Runs the events before `until`, and those at `until` when
    /// `inclusive`.
    std::uint64_t runTo(TimePoint until, bool inclusive);

    EventQueue queue_;
    TimePoint now_{};
    std::uint64_t fired_{0};
    std::size_t queueDepthPeak_{0};
    bool stopRequested_{false};
    bool dispatching_{false};
    obs::TraceSink* trace_{nullptr};
    obs::CampaignProfiler* profiler_{nullptr};
};

}  // namespace symfail::sim
