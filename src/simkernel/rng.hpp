// Deterministic pseudo-random number generation for workload and fault
// models.
//
// The generator is xoshiro256++ seeded through SplitMix64, which gives
// high-quality streams from any 64-bit seed and — critically for a
// measurement-reproduction study — bit-identical sequences across platforms
// and standard-library versions (std::mt19937 distributions are not
// portable across implementations).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::sim {

/// Deterministic, seedable random source with the distribution draws the
/// simulation models need.  Copyable; copies continue independent streams.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /// Derives an independent child stream; used to give each phone in the
    /// fleet its own generator so per-phone runs are order-independent.
    [[nodiscard]] Rng fork();

    /// Derives an independent child stream keyed by a salt string WITHOUT
    /// advancing this generator (unlike fork(), which consumes a draw).
    /// Used for side-channel consumers — e.g. the SRGM ground-truth NHPP
    /// sampler — that must not perturb the campaign's event stream:
    /// a run with the substream drawn stays bit-identical to one without.
    [[nodiscard]] Rng substream(std::string_view salt) const;

    [[nodiscard]] std::uint64_t nextU64();

    /// Uniform real in [0, 1).
    [[nodiscard]] double uniform01();
    /// Uniform real in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi);
    /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
    [[nodiscard]] std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);
    [[nodiscard]] bool bernoulli(double p);
    /// Exponential with the given mean (not rate); mean must be > 0.
    [[nodiscard]] double exponential(double mean);
    /// Standard normal via Box-Muller.
    [[nodiscard]] double normal(double mu = 0.0, double sigma = 1.0);
    /// Log-normal parameterized by its *median* and log-space sigma; the
    /// natural parameterization for duration models ("median reboot gap of
    /// 80 s, spread factor sigma").
    [[nodiscard]] double lognormalMedian(double median, double sigma);
    /// Geometric: number of Bernoulli(p) trials up to and including the
    /// first success; returns >= 1.  p must be in (0, 1].
    [[nodiscard]] int geometric(double p);
    /// Weibull with the given shape and scale (inverse-CDF method).
    [[nodiscard]] double weibull(double shape, double scale);

    /// Samples an index from an unnormalized weight vector; weights must be
    /// non-negative with a positive sum.
    [[nodiscard]] std::size_t discrete(std::span<const double> weights);

    /// Draws an exponential inter-arrival gap for a Poisson process with
    /// the given rate (events per simulated second).
    [[nodiscard]] Duration expGap(double eventsPerSecond);
    /// Draws a duration from a log-normal with the given median.
    [[nodiscard]] Duration lognormalDuration(Duration median, double sigma);

    /// Shuffles a vector in place (Fisher-Yates).
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            const auto j =
                static_cast<std::size_t>(uniformInt(0, static_cast<std::int64_t>(i) - 1));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Picks a uniformly random element; the span must be non-empty.
    template <typename T>
    [[nodiscard]] const T& pick(std::span<const T> items) {
        return items[static_cast<std::size_t>(
            uniformInt(0, static_cast<std::int64_t>(items.size()) - 1))];
    }

private:
    std::array<std::uint64_t, 4> state_{};
};

}  // namespace symfail::sim
