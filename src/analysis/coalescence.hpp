// Panic / high-level-event coalescence (Figures 4 and 5) and the
// panic-activity relationship (Table 3).
//
// A panic is *related* to a high-level (HL) event — a freeze or a
// self-shutdown — when the two fall within a temporal window (the paper
// settles on five minutes after a sensitivity analysis: coalesced pairs
// grow with the window up to ~5 min, then plateau until hour-scale
// windows start capturing uncorrelated events).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/discriminator.hpp"
#include "symbos/panic.hpp"

namespace symfail::analysis {

/// What a panic coalesced with.
enum class PanicRelation : std::uint8_t { Isolated, Freeze, SelfShutdown };

/// A panic observation together with its HL relation.
struct RelatedPanic {
    PanicObservation panic;
    PanicRelation relation{PanicRelation::Isolated};
};

/// Per-category coalescence summary (Figure 5b).
struct CategoryRelationRow {
    symbos::PanicCategory category{};
    std::size_t total{0};
    std::size_t toFreeze{0};
    std::size_t toSelfShutdown{0};
    [[nodiscard]] std::size_t isolated() const {
        return total - toFreeze - toSelfShutdown;
    }
};

/// Full coalescence result.
struct CoalescenceResult {
    std::vector<RelatedPanic> panics;
    std::vector<CategoryRelationRow> byCategory;
    std::size_t relatedCount{0};
    /// Fraction of panics related to any HL event (paper: ~51%).
    [[nodiscard]] double relatedFraction() const {
        return panics.empty() ? 0.0
                              : static_cast<double>(relatedCount) /
                                    static_cast<double>(panics.size());
    }
    /// HL events with at least one related panic.
    std::size_t hlWithPanic{0};
    std::size_t hlTotal{0};
};

/// The paper's window.
inline constexpr double kCoalescenceWindowSeconds = 300.0;

/// Coalesces panics with HL events per phone within +-window.
[[nodiscard]] CoalescenceResult coalesce(const LogDataset& dataset,
                                         const ShutdownClassification& classification,
                                         double windowSeconds = kCoalescenceWindowSeconds);

/// Window sensitivity: related-fraction for each window size (the A2
/// ablation reproducing the paper's window-selection argument).
struct WindowSweepPoint {
    double windowSeconds;
    double relatedFraction;
    std::size_t relatedCount;
};
[[nodiscard]] std::vector<WindowSweepPoint> windowSweep(
    const LogDataset& dataset, const ShutdownClassification& classification,
    const std::vector<double>& windowsSeconds);

/// Table 3: activity context of HL-related panics, by category.
struct ActivityCorrelationRow {
    symbos::PanicCategory category{};
    std::size_t voiceCall{0};
    std::size_t message{0};
    std::size_t unspecified{0};
};
struct ActivityCorrelation {
    std::vector<ActivityCorrelationRow> rows;
    std::size_t totalRelated{0};
    /// Percentages over all HL-related panics (paper: voice 38.6%,
    /// message 6.6%, unspecified 54.8%).
    double voicePercent{0.0};
    double messagePercent{0.0};
    double unspecifiedPercent{0.0};
};
[[nodiscard]] ActivityCorrelation activityCorrelation(const CoalescenceResult& result);

}  // namespace symfail::analysis
