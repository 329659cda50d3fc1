// Fixed-width binned histogram and a small frequency counter, used by the
// analysis pipeline to build the paper's figures (reboot-duration
// distribution, burst lengths, running-application counts).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace symfail::sim {

/// Binned histogram over [lo, hi) with underflow/overflow buckets.
/// Bins are fixed-width by default; an explicit edge vector (or the
/// `logScale` factory) gives variable-width bins for heavy-tailed
/// quantities such as delivery latencies that span milliseconds to days.
class Histogram {
public:
    /// `bins` must be >= 1 and `hi` > `lo`.
    Histogram(double lo, double hi, std::size_t bins);

    /// Explicit ascending bin edges; `edges.size() - 1` bins over
    /// [edges.front(), edges.back()).  Requires >= 2 strictly ascending
    /// edges.
    explicit Histogram(std::vector<double> edges);

    /// Logarithmically spaced bins from `lo` to at least `hi` with
    /// `binsPerDecade` bins per factor of ten (`lo` > 0, `hi` > `lo`).
    [[nodiscard]] static Histogram logScale(double lo, double hi,
                                            std::size_t binsPerDecade);

    void add(double x, std::uint64_t count = 1);

    [[nodiscard]] std::size_t binCount() const { return counts_.size(); }
    [[nodiscard]] std::uint64_t binValue(std::size_t i) const { return counts_[i]; }
    /// Inclusive lower edge of bin i.
    [[nodiscard]] double binLo(std::size_t i) const;
    /// Exclusive upper edge of bin i.
    [[nodiscard]] double binHi(std::size_t i) const;
    [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
    [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
    [[nodiscard]] std::uint64_t total() const { return total_; }

    /// Midpoint of the fullest bin; 0 if empty.  Used to locate modes such
    /// as the ~80 s self-shutdown peak in Figure 2.
    [[nodiscard]] double modeMidpoint() const;

    /// Approximate quantile (q in [0,1]) by linear interpolation within the
    /// containing bin; clamps to [lo, hi].
    [[nodiscard]] double quantile(double q) const;

    /// Adds another histogram's counts into this one.  Both histograms
    /// must have identical geometry (same lo, hi and bin count, and the
    /// same edges when either uses explicit edges).
    void merge(const Histogram& other);

    /// Renders an ASCII bar chart, one row per non-empty bin.
    [[nodiscard]] std::string renderAscii(std::size_t width = 50) const;

private:
    double lo_;
    double hi_;
    double binWidth_;             ///< 0 when `edges_` is in use.
    std::vector<double> edges_;   ///< Empty for fixed-width histograms.
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_{0};
    std::uint64_t overflow_{0};
    std::uint64_t total_{0};
};

/// Ordered frequency counter for small discrete domains (burst lengths,
/// app counts).  Keys are int64 so it can hold counts and small codes.
class FreqCounter {
public:
    void add(std::int64_t key, std::uint64_t count = 1);

    [[nodiscard]] std::uint64_t total() const { return total_; }
    [[nodiscard]] std::uint64_t count(std::int64_t key) const;
    [[nodiscard]] double fraction(std::int64_t key) const;
    [[nodiscard]] const std::map<std::int64_t, std::uint64_t>& entries() const {
        return counts_;
    }
    /// Mean of the keyed quantity weighted by counts; 0 if empty.
    [[nodiscard]] double mean() const;

private:
    std::map<std::int64_t, std::uint64_t> counts_;
    std::uint64_t total_{0};
};

}  // namespace symfail::sim
