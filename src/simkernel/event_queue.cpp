#include "simkernel/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace symfail::sim {

EventId EventQueue::schedule(TimePoint at, Action action, const char* category) {
    const std::uint64_t seq = nextSeq_++;
    std::uint32_t slot = 0;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{std::move(action), category, false});
    } else {
        slot = free_.back();
        free_.pop_back();
        slots_[slot] = Slot{std::move(action), category, false};
    }
    heap_.push_back(Key{at, seq, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return EventId{seq};
}

bool EventQueue::cancel(EventId id) {
    if (!id.valid() || id.value >= nextSeq_) return false;
    const auto it = std::find_if(heap_.begin(), heap_.end(),
                                 [&](const Key& k) { return k.seq == id.value; });
    if (it == heap_.end()) return false;  // fired, or cancelled and discarded
    Slot& slot = slots_[it->slot];
    if (slot.cancelled) return false;
    slot.cancelled = true;
    assert(live_ > 0);
    --live_;
    // Free the closure now; its destructor runs after the bookkeeping.
    Action dead;
    dead.swap(slot.action);
    return true;
}

EventQueue::Key EventQueue::popHeap() const {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    return key;
}

void EventQueue::dropCancelledHead() const {
    while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
        free_.push_back(popHeap().slot);
    }
}

std::optional<TimePoint> EventQueue::nextTime() const {
    dropCancelledHead();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
    dropCancelledHead();
    assert(live_ > 0);
    const Key key = popHeap();
    Slot& slot = slots_[key.slot];
    Fired fired{key.at, EventId{key.seq}, std::move(slot.action), slot.category};
    free_.push_back(key.slot);
    --live_;
    return fired;
}

}  // namespace symfail::sim
