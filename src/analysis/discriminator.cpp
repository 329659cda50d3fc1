#include "analysis/discriminator.hpp"

#include <algorithm>

namespace symfail::analysis {

ShutdownClassification ShutdownDiscriminator::classify(const LogDataset& dataset) const {
    ShutdownClassification out;
    for (const auto& s : dataset.shutdowns()) {
        if (s.prior == logger::PriorShutdown::LowBattery) {
            out.lowBattery.push_back(s);
            continue;
        }
        const double seconds = s.offDuration().asSecondsF();
        if (seconds < threshold_) {
            out.selfShutdowns.push_back(s);
        } else {
            out.userShutdowns.push_back(s);
        }
    }
    return out;
}

sim::Histogram ShutdownDiscriminator::rebootDurationHistogram(const LogDataset& dataset,
                                                              double maxSeconds,
                                                              std::size_t bins) {
    sim::Histogram hist{0.0, maxSeconds, bins};
    for (const auto& s : dataset.shutdowns()) {
        if (s.prior == logger::PriorShutdown::LowBattery) continue;
        hist.add(s.offDuration().asSecondsF());
    }
    return hist;
}

}  // namespace symfail::analysis
