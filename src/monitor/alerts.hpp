// Declarative alert rules over monitor metrics.
//
// A rule names a metric (fleet-wide, or evaluated per phone), a threshold
// comparison, and a severity.  The engine evaluates all rules at each
// monitor tick against a metric lookup and keeps firing/clearing state:
// one FIRING event when the condition first holds, one CLEARED event when
// it stops (optionally with a separate clear threshold for hysteresis, so
// a metric hovering at the line does not flap).  A metric the lookup
// cannot produce (e.g. windowed MTBF with no failures in the window)
// counts as "condition not met" and clears.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::monitor {

enum class Severity : std::uint8_t { Info, Warning, Critical };
[[nodiscard]] std::string_view toString(Severity severity);

enum class Comparison : std::uint8_t {
    GreaterThan,
    GreaterOrEqual,
    LessThan,
    LessOrEqual,
};

/// One declarative rule.
struct AlertRule {
    std::string name;
    std::string metric;
    Comparison op{Comparison::GreaterThan};
    double threshold{0.0};
    Severity severity{Severity::Warning};
    /// Evaluate once per registered phone instead of once fleet-wide.
    bool perPhone{false};
    /// Hysteresis: once firing, the alert clears only when the value stops
    /// satisfying `op` against this threshold (defaults to `threshold`).
    std::optional<double> clearThreshold;
};

/// One transition in the alert log.
struct AlertEvent {
    sim::TimePoint time;
    std::string rule;
    std::string phone;  ///< Empty for fleet-scope rules.
    bool firing{true};  ///< false: the CLEARED edge.
    double value{0.0};
    Severity severity{Severity::Warning};
};

/// Rule evaluation with firing/clearing state.
class AlertEngine {
public:
    /// Lookup for metric values; returns nullopt when the metric is
    /// undefined at this instant.  `phone` is empty for fleet scope.
    using MetricFn = std::function<std::optional<double>(
        const std::string& metric, const std::string& phone)>;

    explicit AlertEngine(std::vector<AlertRule> rules = {});

    /// Evaluates every rule (per-phone rules once per name in `phones`).
    void evaluate(sim::TimePoint now, const std::vector<std::string>& phones,
                  const MetricFn& metric);

    [[nodiscard]] const std::vector<AlertEvent>& log() const { return log_; }
    [[nodiscard]] std::uint64_t fired() const { return fired_; }
    [[nodiscard]] std::uint64_t cleared() const { return cleared_; }
    [[nodiscard]] std::size_t activeCount() const { return fired_ - cleared_; }
    /// Active alerts as "rule" or "rule/phone", sorted by rule then phone.
    [[nodiscard]] std::vector<std::string> activeLabels() const;

private:
    void evaluateOne(sim::TimePoint now, const AlertRule& rule,
                     std::size_t ruleIdx, const std::string& phone,
                     const MetricFn& metric);
    [[nodiscard]] static bool satisfies(Comparison op, double value,
                                        double threshold);

    std::vector<AlertRule> rules_;
    /// (rule index, phone) -> currently firing.
    std::map<std::pair<std::size_t, std::string>, bool> state_;
    std::vector<AlertEvent> log_;
    std::uint64_t fired_{0};
    std::uint64_t cleared_{0};
};

}  // namespace symfail::monitor
