#include "simkernel/histogram.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace symfail::sim {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, binWidth_{(hi - lo) / static_cast<double>(bins)}, counts_(bins, 0) {
    assert(bins >= 1);
    assert(hi > lo);
}

Histogram::Histogram(std::vector<double> edges)
    : lo_{edges.front()},
      hi_{edges.back()},
      binWidth_{0.0},
      edges_{std::move(edges)},
      counts_(edges_.size() - 1, 0) {
    assert(edges_.size() >= 2);
    assert(std::is_sorted(edges_.begin(), edges_.end()));
    assert(hi_ > lo_);
}

Histogram Histogram::logScale(double lo, double hi, std::size_t binsPerDecade) {
    assert(lo > 0.0);
    assert(hi > lo);
    assert(binsPerDecade >= 1);
    const double step = std::pow(10.0, 1.0 / static_cast<double>(binsPerDecade));
    std::vector<double> edges{lo};
    while (edges.back() < hi) edges.push_back(edges.back() * step);
    return Histogram{std::move(edges)};
}

void Histogram::add(double x, std::uint64_t count) {
    total_ += count;
    if (x < lo_) {
        underflow_ += count;
        return;
    }
    if (x >= hi_) {
        overflow_ += count;
        return;
    }
    std::size_t i;
    if (edges_.empty()) {
        i = static_cast<std::size_t>((x - lo_) / binWidth_);
    } else {
        // First edge strictly above x; its predecessor opens x's bin.
        const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
        i = static_cast<std::size_t>(it - edges_.begin()) - 1;
    }
    if (i >= counts_.size()) i = counts_.size() - 1;  // FP edge at hi_
    counts_[i] += count;
}

void Histogram::merge(const Histogram& other) {
    assert(lo_ == other.lo_ && hi_ == other.hi_ &&
           counts_.size() == other.counts_.size());
    assert(edges_ == other.edges_);
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts_[i] += other.counts_[i];
    }
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
}

double Histogram::binLo(std::size_t i) const {
    if (!edges_.empty()) return edges_[i];
    return lo_ + static_cast<double>(i) * binWidth_;
}

double Histogram::binHi(std::size_t i) const {
    if (!edges_.empty()) return edges_[i + 1];
    return lo_ + static_cast<double>(i + 1) * binWidth_;
}

double Histogram::modeMidpoint() const {
    const auto it = std::max_element(counts_.begin(), counts_.end());
    if (it == counts_.end() || *it == 0) return 0.0;
    const auto i = static_cast<std::size_t>(it - counts_.begin());
    return (binLo(i) + binHi(i)) / 2.0;
}

double Histogram::quantile(double q) const {
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t inRange = total_ - underflow_ - overflow_;
    if (inRange == 0) return lo_;
    const double target = q * static_cast<double>(inRange);
    double cum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cum + static_cast<double>(counts_[i]);
        if (next >= target) {
            if (counts_[i] == 0) return binLo(i);
            const double within = (target - cum) / static_cast<double>(counts_[i]);
            return binLo(i) + within * (binHi(i) - binLo(i));
        }
        cum = next;
    }
    return hi_;
}

std::string Histogram::renderAscii(std::size_t width) const {
    std::string out;
    const auto maxIt = std::max_element(counts_.begin(), counts_.end());
    const std::uint64_t maxCount = maxIt == counts_.end() ? 0 : *maxIt;
    if (maxCount == 0) return "(empty histogram)\n";
    char buf[128];
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        const auto bar = static_cast<std::size_t>(std::llround(
            static_cast<double>(counts_[i]) * static_cast<double>(width) /
            static_cast<double>(maxCount)));
        std::snprintf(buf, sizeof buf, "%12.1f-%-12.1f %8llu |", binLo(i), binHi(i),
                      static_cast<unsigned long long>(counts_[i]));
        out += buf;
        out.append(std::max<std::size_t>(bar, 1), '#');
        out += '\n';
    }
    if (underflow_ != 0) {
        std::snprintf(buf, sizeof buf, "   underflow: %llu\n",
                      static_cast<unsigned long long>(underflow_));
        out += buf;
    }
    if (overflow_ != 0) {
        std::snprintf(buf, sizeof buf, "    overflow: %llu\n",
                      static_cast<unsigned long long>(overflow_));
        out += buf;
    }
    return out;
}

void FreqCounter::add(std::int64_t key, std::uint64_t count) {
    counts_[key] += count;
    total_ += count;
}

std::uint64_t FreqCounter::count(std::int64_t key) const {
    const auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
}

double FreqCounter::fraction(std::int64_t key) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count(key)) / static_cast<double>(total_);
}

double FreqCounter::mean() const {
    if (total_ == 0) return 0.0;
    double sum = 0.0;
    for (const auto& [k, c] : counts_) {
        sum += static_cast<double>(k) * static_cast<double>(c);
    }
    return sum / static_cast<double>(total_);
}

}  // namespace symfail::sim
