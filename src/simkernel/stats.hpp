// Streaming summary statistics (Welford) used by estimators and benches.
#pragma once

#include <cstdint>

namespace symfail::sim {

/// Single-pass mean/variance/min/max accumulator.
class RunningStats {
public:
    void add(double x);

    [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : mean_; }
    /// Sample variance (n-1 denominator); 0 for fewer than two samples.
    [[nodiscard]] double variance() const;
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const { return n_ == 0 ? 0.0 : min_; }
    [[nodiscard]] double max() const { return n_ == 0 ? 0.0 : max_; }

private:
    std::uint64_t n_{0};
    double mean_{0.0};
    double m2_{0.0};
    double min_{0.0};
    double max_{0.0};
};

}  // namespace symfail::sim
