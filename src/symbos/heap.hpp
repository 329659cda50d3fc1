// Per-process heap model.
//
// Symbian phones are memory-constrained, and the paper identifies heap
// mismanagement as a principal failure cause.  This model tracks live
// allocation cells so that tests and examples can assert leak-freedom of
// the cleanup-stack and two-phase-construction protocols.  A byte
// capacity makes allocations fail (an allocation failure *leaves* with
// KErrNoMemory); the osfault memory plane sets it during a pressure
// episode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace symfail::symbos {

class ExecContext;

/// Heap cell handle; 0 is never a valid cell.
using HeapCell = std::uint64_t;

/// Allocation tracker with a byte capacity.
class HeapModel {
public:
    /// Allocates a cell of `size` bytes; leaves with KErrNoMemory when the
    /// configured capacity would be exceeded.
    HeapCell allocL(const ExecContext& ctx, std::size_t size);

    /// Frees a cell; freeing an unknown or already-freed cell is a no-op.
    void free(HeapCell cell);

    [[nodiscard]] bool live(HeapCell cell) const;
    [[nodiscard]] std::size_t liveCount() const { return cells_.size(); }
    [[nodiscard]] std::size_t bytesInUse() const { return bytesInUse_; }
    [[nodiscard]] std::uint64_t totalAllocs() const { return totalAllocs_; }

    /// Counts `count` allocations made and freed where the model did not
    /// see them: the heartbeat scratch cells of a logger daemon whose
    /// ticks were derived rather than run.
    void countFreedAllocs(std::uint64_t count) {
        next_ += count;
        totalAllocs_ += count;
    }

    /// Caps total bytes; further allocations leave with KErrNoMemory.
    /// `setCapacity(bytesInUse())` fails every further non-empty allocation.
    void setCapacity(std::size_t bytes) { capacity_ = bytes; }

private:
    struct Cell {
        HeapCell id{0};
        std::size_t size{0};
    };
    /// The live cell with `id`, or end().
    [[nodiscard]] std::vector<Cell>::const_iterator find(HeapCell id) const;

    // Live cells sorted by id: ids only grow, so an allocation appends.
    std::vector<Cell> cells_;
    HeapCell next_{1};
    std::size_t bytesInUse_{0};
    std::size_t capacity_{SIZE_MAX};
    std::uint64_t totalAllocs_{0};
};

}  // namespace symfail::symbos
