#include "simkernel/simulator.hpp"

#include <chrono>
#include <utility>

namespace symfail::sim {

EventId Simulator::scheduleAt(TimePoint at, EventQueue::Action action) {
    if (at < now_) at = now_;
    return queue_.schedule(at, std::move(action));
}

EventId Simulator::scheduleAt(TimePoint at, const char* category,
                              EventQueue::Action action) {
    if (at < now_) at = now_;
    return queue_.schedule(at, std::move(action), category);
}

EventId Simulator::scheduleAfter(Duration delay, const char* category,
                                 EventQueue::Action action) {
    if (delay.isNegative()) delay = Duration{};
    return queue_.schedule(now_ + delay, std::move(action), category);
}

void Simulator::dispatch(EventQueue::Fired& fired) {
    now_ = fired.at;
    const std::size_t depth = queue_.size() + 1;  // include the popped event
    if (depth > queueDepthPeak_) queueDepthPeak_ = depth;
    if (trace_ != nullptr) {
        trace_->instant(0, "sim.dispatch",
                        fired.category != nullptr ? fired.category : "uncategorized",
                        now_);
    }
    dispatching_ = true;
    if (profiler_ != nullptr) {
        if (profiler_->sampleThisEvent()) {
            const auto hostStart = std::chrono::steady_clock::now();
            fired.action();
            const std::chrono::duration<double> hostCost =
                std::chrono::steady_clock::now() - hostStart;
            profiler_->noteEvent(fired.category, hostCost.count(), queue_.size());
        } else {
            fired.action();
            profiler_->noteEventUnsampled(fired.category, queue_.size());
        }
    } else {
        fired.action();
    }
    dispatching_ = false;
    ++fired_;
}

std::uint64_t Simulator::runUntil(TimePoint until) { return runTo(until, true); }

std::uint64_t Simulator::runBefore(TimePoint until) { return runTo(until, false); }

std::uint64_t Simulator::runTo(TimePoint until, bool inclusive) {
    stopRequested_ = false;
    std::uint64_t n = 0;
    while (!stopRequested_) {
        const auto next = queue_.nextTime();
        if (!next || *next > until || (*next == until && !inclusive)) break;
        auto fired = queue_.pop();
        dispatch(fired);
        ++n;
    }
    if (now_ < until && !stopRequested_) now_ = until;
    return n;
}

std::uint64_t Simulator::runAll() {
    stopRequested_ = false;
    std::uint64_t n = 0;
    while (!stopRequested_ && !queue_.empty()) {
        auto fired = queue_.pop();
        dispatch(fired);
        ++n;
    }
    return n;
}

}  // namespace symfail::sim
