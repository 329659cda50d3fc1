// Self-shutdown identification (Section 6, Figure 2).
//
// A REBOOT heartbeat marker cannot tell a kernel-initiated reboot from a
// deliberate user power-off — the event is identical.  The paper's
// insight: the *off duration* separates them.  Self-shutdowns restart
// within minutes (median ≈80 s); user shutdowns last much longer (the
// night mode around 30,000 s ≈ 8 h 20 min).  Shutdowns shorter than a
// 360 s threshold are classified as self-shutdowns.
#pragma once

#include <vector>

#include "analysis/dataset.hpp"
#include "simkernel/histogram.hpp"

namespace symfail::analysis {

/// Classification result for the shutdown population.
struct ShutdownClassification {
    std::vector<ShutdownObservation> selfShutdowns;
    std::vector<ShutdownObservation> userShutdowns;
    std::vector<ShutdownObservation> lowBattery;  ///< LOWBT: excluded from both
    [[nodiscard]] std::size_t totalRebootEvents() const {
        return selfShutdowns.size() + userShutdowns.size();
    }
    [[nodiscard]] double selfFraction() const {
        const auto total = totalRebootEvents();
        return total == 0 ? 0.0
                          : static_cast<double>(selfShutdowns.size()) /
                                static_cast<double>(total);
    }
};

/// The paper's threshold.
inline constexpr double kSelfShutdownThresholdSeconds = 360.0;

/// Discriminates self- from user shutdowns by off-duration.
class ShutdownDiscriminator {
public:
    explicit ShutdownDiscriminator(double thresholdSeconds = kSelfShutdownThresholdSeconds)
        : threshold_{thresholdSeconds} {}

    [[nodiscard]] ShutdownClassification classify(const LogDataset& dataset) const;

    /// Figure 2: the reboot-duration histogram over all REBOOT events.
    /// `maxSeconds` bounds the plotted range (the paper's outer plot runs
    /// to ~40,000 s; the inner zoom to 500 s).
    [[nodiscard]] static sim::Histogram rebootDurationHistogram(
        const LogDataset& dataset, double maxSeconds, std::size_t bins);

private:
    double threshold_;
};

}  // namespace symfail::analysis
