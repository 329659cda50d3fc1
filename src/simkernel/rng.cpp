#include "simkernel/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "obs/fnv.hpp"

namespace symfail::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
}

Rng Rng::fork() {
    return Rng{nextU64()};
}

Rng Rng::substream(std::string_view salt) const {
    // FNV-1a over the salt, then fold in the current state words through
    // splitmix64.  Reads state_ without mutating it, so the parent stream
    // is untouched; distinct salts land in unrelated streams.
    std::uint64_t h = obs::fnv1a64(salt);
    for (const std::uint64_t w : state_) {
        std::uint64_t mix = h ^ w;
        h = splitmix64(mix);
    }
    return Rng{h};
}

std::uint64_t Rng::nextU64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double Rng::uniform01() {
    // 53 top bits -> double in [0,1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) {  // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    }
    // Rejection sampling to avoid modulo bias: a draw at or above
    // UINT64_MAX - UINT64_MAX % span is rejected.  That bound exceeds
    // UINT64_MAX - span, so only a draw above the latter pays for the
    // bound's 64-bit division.
    std::uint64_t v = nextU64();
    if (v > UINT64_MAX - span) {
        const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
        while (v >= limit) v = nextU64();
    }
    return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::bernoulli(double p) {
    return uniform01() < p;
}

double Rng::exponential(double mean) {
    assert(mean > 0.0);
    double u = uniform01();
    // uniform01 can return 0; nudge away from log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
}

double Rng::normal(double mu, double sigma) {
    double u1 = uniform01();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double u2 = uniform01();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mu + sigma * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormalMedian(double median, double sigma) {
    assert(median > 0.0);
    return median * std::exp(normal(0.0, sigma));
}

int Rng::geometric(double p) {
    assert(p > 0.0 && p <= 1.0);
    if (p >= 1.0) return 1;
    double u = uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    const auto k = static_cast<int>(std::ceil(std::log(u) / std::log1p(-p)));
    return k < 1 ? 1 : k;
}

double Rng::weibull(double shape, double scale) {
    assert(shape > 0.0 && scale > 0.0);
    double u = uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    return scale * std::pow(-std::log(u), 1.0 / shape);
}

std::size_t Rng::discrete(std::span<const double> weights) {
    double total = 0.0;
    for (const double w : weights) {
        assert(w >= 0.0);
        total += w;
    }
    assert(total > 0.0);
    double x = uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        x -= weights[i];
        if (x < 0.0) return i;
    }
    return weights.size() - 1;  // numeric edge: landed exactly on the total
}

Duration Rng::expGap(double eventsPerSecond) {
    assert(eventsPerSecond > 0.0);
    return Duration::fromSecondsF(exponential(1.0 / eventsPerSecond));
}

Duration Rng::lognormalDuration(Duration median, double sigma) {
    return Duration::fromSecondsF(lognormalMedian(median.asSecondsF(), sigma));
}

}  // namespace symfail::sim
