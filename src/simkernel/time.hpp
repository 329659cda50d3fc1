// Simulated-time primitives for the discrete-event kernel.
//
// All simulated time is held as a signed 64-bit count of microseconds.
// `Duration` is a span of simulated time, `TimePoint` an instant on the
// simulation clock (tick 0 is the start of the campaign).  Both are strong
// types: they never convert implicitly to or from integers, which prevents
// the classic seconds-vs-milliseconds unit bugs in workload models.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

namespace symfail::sim {

/// A span of simulated time with microsecond resolution.
class Duration {
public:
    constexpr Duration() = default;

    [[nodiscard]] static constexpr Duration micros(std::int64_t n) { return Duration{n}; }
    [[nodiscard]] static constexpr Duration millis(std::int64_t n) { return Duration{n * 1'000}; }
    [[nodiscard]] static constexpr Duration seconds(std::int64_t n) { return Duration{n * 1'000'000}; }
    [[nodiscard]] static constexpr Duration minutes(std::int64_t n) { return seconds(n * 60); }
    [[nodiscard]] static constexpr Duration hours(std::int64_t n) { return seconds(n * 3'600); }
    [[nodiscard]] static constexpr Duration days(std::int64_t n) { return seconds(n * 86'400); }

    /// Builds a duration from a fractional number of seconds (rounded to
    /// the nearest microsecond).  Used by stochastic workload models whose
    /// draws are real-valued.
    [[nodiscard]] static Duration fromSecondsF(double s);

    [[nodiscard]] constexpr std::int64_t totalMicros() const { return us_; }
    [[nodiscard]] constexpr std::int64_t totalSeconds() const { return us_ / 1'000'000; }
    [[nodiscard]] constexpr double asSecondsF() const { return static_cast<double>(us_) / 1e6; }
    [[nodiscard]] constexpr double asHoursF() const { return asSecondsF() / 3'600.0; }
    [[nodiscard]] constexpr double asDaysF() const { return asSecondsF() / 86'400.0; }

    [[nodiscard]] constexpr bool isNegative() const { return us_ < 0; }

    constexpr auto operator<=>(const Duration&) const = default;

    constexpr Duration operator+(Duration o) const { return Duration{us_ + o.us_}; }
    constexpr Duration operator-(Duration o) const { return Duration{us_ - o.us_}; }
    constexpr Duration& operator+=(Duration o) { us_ += o.us_; return *this; }
    constexpr Duration operator*(std::int64_t k) const { return Duration{us_ * k}; }
    constexpr Duration operator/(std::int64_t k) const { return Duration{us_ / k}; }
    /// Ratio of two durations as a real number; the divisor must be nonzero.
    [[nodiscard]] constexpr double ratio(Duration o) const {
        return static_cast<double>(us_) / static_cast<double>(o.us_);
    }

    /// Renders as a compact human-readable string, e.g. "2d 3h 10m 5s".
    [[nodiscard]] std::string str() const;

private:
    constexpr explicit Duration(std::int64_t us) : us_{us} {}
    std::int64_t us_{0};
};

/// An instant on the simulation clock.
class TimePoint {
public:
    constexpr TimePoint() = default;

    [[nodiscard]] static constexpr TimePoint origin() { return TimePoint{}; }
    [[nodiscard]] static constexpr TimePoint fromMicros(std::int64_t us) { return TimePoint{us}; }

    [[nodiscard]] constexpr std::int64_t micros() const { return us_; }
    [[nodiscard]] constexpr double asSecondsF() const { return static_cast<double>(us_) / 1e6; }

    /// Offset within the simulated day, for diurnal workload models.
    [[nodiscard]] constexpr Duration timeOfDay() const {
        constexpr std::int64_t day = 86'400LL * 1'000'000LL;
        std::int64_t rem = us_ % day;
        if (rem < 0) rem += day;
        return Duration::micros(rem);
    }
    /// Index of the simulated day this instant falls into.
    [[nodiscard]] constexpr std::int64_t dayIndex() const {
        constexpr std::int64_t day = 86'400LL * 1'000'000LL;
        std::int64_t d = us_ / day;
        if (us_ % day < 0) --d;
        return d;
    }

    constexpr auto operator<=>(const TimePoint&) const = default;

    constexpr TimePoint operator+(Duration d) const { return TimePoint{us_ + d.totalMicros()}; }
    constexpr TimePoint operator-(Duration d) const { return TimePoint{us_ - d.totalMicros()}; }
    constexpr Duration operator-(TimePoint o) const { return Duration::micros(us_ - o.us_); }
    constexpr TimePoint& operator+=(Duration d) { us_ += d.totalMicros(); return *this; }

    /// Renders as "[d+hh:mm:ss.mmm]".
    [[nodiscard]] std::string str() const;

private:
    constexpr explicit TimePoint(std::int64_t us) : us_{us} {}
    std::int64_t us_{0};
};

}  // namespace symfail::sim
