#include "symbos/heap.hpp"

#include <algorithm>

#include "symbos/err.hpp"
#include "symbos/kernel.hpp"

namespace symfail::symbos {

HeapCell HeapModel::allocL(const ExecContext& ctx, std::size_t size) {
    if (bytesInUse_ + size > capacity_) {
        ctx.leave(KErrNoMemory);
    }
    const HeapCell cell = next_++;
    cells_.push_back(Cell{cell, size});
    bytesInUse_ += size;
    ++totalAllocs_;
    return cell;
}

void HeapModel::free(HeapCell cell) {
    const auto it = find(cell);
    if (it == cells_.end()) return;
    bytesInUse_ -= it->size;
    cells_.erase(it);
}

bool HeapModel::live(HeapCell cell) const {
    return find(cell) != cells_.end();
}

std::vector<HeapModel::Cell>::const_iterator HeapModel::find(HeapCell id) const {
    const auto it = std::lower_bound(cells_.begin(), cells_.end(), id,
                                     [](const Cell& c, HeapCell v) { return c.id < v; });
    return it != cells_.end() && it->id == id ? it : cells_.end();
}

}  // namespace symfail::symbos
