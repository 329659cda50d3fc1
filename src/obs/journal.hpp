// One phone's hand-offs to the campaign-wide sinks.
//
// A fleet runs each phone in its own simulator, on whichever worker thread
// the pool gives it, one window of simulated time at a time.  The sinks a
// whole campaign shares (the provenance tracker, the monitor) are not
// thread-safe, and they must see every phone's items in one order that no
// worker count can change.  So what a running phone would hand to such a
// sink goes into its journal instead: a closure stamped with the
// simulated instant it was handed over.
// Between windows the calling thread merges the phones' journals by
// (time, phone index, journal order) and runs each closure.
#pragma once

#include <functional>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::obs {

/// One item a phone handed over: the instant and the delivery to run on
/// the calling thread.
struct JournalItem {
    sim::TimePoint at;
    std::function<void()> deliver;
};

/// A phone's items, in simulation order, so their instants never
/// decrease.  Cleared after each window's delivery; the capacity stays.
using Journal = std::vector<JournalItem>;

}  // namespace symfail::obs
