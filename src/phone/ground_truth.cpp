#include "phone/ground_truth.hpp"

#include <algorithm>

namespace symfail::phone {

void GroundTruth::record(sim::TimePoint time, TruthKind kind) {
    events_.push_back(TruthEvent{time, kind});
}

std::size_t GroundTruth::countOf(TruthKind kind) const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [&](const TruthEvent& e) { return e.kind == kind; }));
}

std::vector<TruthEvent> GroundTruth::eventsOf(TruthKind kind) const {
    std::vector<TruthEvent> out;
    for (const auto& e : events_) {
        if (e.kind == kind) out.push_back(e);
    }
    return out;
}

}  // namespace symfail::phone
