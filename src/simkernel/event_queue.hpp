// Pending-event set for the discrete-event simulator.
//
// Events fire in (time, sequence number) order, so events scheduled for
// the same instant fire in scheduling order — a requirement for
// deterministic replay.  The pending keys {time, seq, slot} sit in one
// binary heap ordered that way; the action and category live in a slot
// pool recycled through a free list.  Cancellation marks the slot and
// frees its action at once; the key stays where it is and is discarded
// when it reaches the top of the heap.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventId {
    std::uint64_t value{0};
    [[nodiscard]] bool valid() const { return value != 0; }
    friend bool operator==(EventId, EventId) = default;
};

/// Time-ordered pending-event set.
class EventQueue {
public:
    using Action = std::function<void()>;

    /// Schedules `action` at `at`; returns a handle usable with cancel().
    /// `category` must be a static string (or nullptr): it labels the event
    /// for tracing/profiling and is stored by pointer, never copied.
    EventId schedule(TimePoint at, Action action, const char* category = nullptr);

    /// Cancels a pending event.  Returns false if the event already fired,
    /// was already cancelled, or the id is unknown.  Finding the event is
    /// a linear scan of the pending keys.
    bool cancel(EventId id);

    [[nodiscard]] bool empty() const { return live_ == 0; }
    [[nodiscard]] std::size_t size() const { return live_; }

    /// Approximate heap footprint of the pending-event set: the capacities
    /// of the heap, the slot pool and the free list.  Derived
    /// from container sizes only (no allocator introspection), so
    /// identical schedules yield identical values within one binary.
    /// Closures that spill past std::function's inline buffer are not
    /// counted.
    [[nodiscard]] std::size_t approxBytes() const {
        return heap_.capacity() * sizeof(Key) +
               slots_.capacity() * sizeof(Slot) +
               free_.capacity() * sizeof(std::uint32_t);
    }

    /// Time of the earliest pending event, if any.
    [[nodiscard]] std::optional<TimePoint> nextTime() const;

    /// Removes and returns the earliest pending event.  Precondition:
    /// !empty().
    struct Fired {
        TimePoint at;
        EventId id;  ///< The simulator ignores it; the reference-model test matches on it.
        Action action;
        const char* category{nullptr};
    };
    Fired pop();

private:
    struct Key {
        TimePoint at;
        std::uint64_t seq{0};
        std::uint32_t slot{0};
    };
    struct Slot {
        Action action;
        const char* category{nullptr};
        bool cancelled{false};
    };
    // Min-heap ordering: the *later* key compares less so that
    // std::push_heap/pop_heap (max-heap primitives) keep the earliest
    // event at the front.
    struct Later {
        bool operator()(const Key& a, const Key& b) const {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };

    /// Removes and returns the heap's top key.
    Key popHeap() const;

    /// Discards cancelled keys at the top of the heap.  Logically const
    /// (the pending-event set is unchanged), hence the mutable containers.
    void dropCancelledHead() const;

    mutable std::vector<Key> heap_;
    mutable std::vector<Slot> slots_;
    mutable std::vector<std::uint32_t> free_;
    std::uint64_t nextSeq_{1};
    std::size_t live_{0};
};

}  // namespace symfail::sim
