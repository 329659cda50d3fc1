// Alert rules over the monitor's tick.
//
// A rule computes its own value at each monitor tick — fleet-wide from the
// tick's windowed counts, or once per registered phone from that phone's
// upload silence — and compares it against a threshold.  The engine keeps
// firing/clearing state: one FIRING event when the condition first holds,
// one CLEARED event when it stops (optionally with a separate clear
// threshold for hysteresis, so a value hovering at the line does not
// flap).  A value the rule cannot compute (e.g. windowed MTBF with no
// failures in the window) counts as "condition not met" and clears.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "monitor/health.hpp"
#include "simkernel/time.hpp"

namespace symfail::monitor {

enum class Severity : std::uint8_t { Info, Warning, Critical };
[[nodiscard]] std::string_view toString(Severity severity);

enum class Comparison : std::uint8_t { GreaterThan, GreaterOrEqual, LessThan };

/// One registered phone's upload silence at a tick.
struct PhoneSilence {
    std::string name;
    /// Hours since the phone's last ingest or its enrollment, whichever is
    /// later; nullopt before the phone enrolls.
    std::optional<double> hours;
    /// The phone's upload path is in a known transport outage window.
    bool inOutage{false};
};

/// A rule's value at one tick; nullopt when it is undefined.
using FleetValue = std::optional<double> (*)(const WindowStats& window);
using PhoneValue = std::optional<double> (*)(const PhoneSilence& phone);

/// One rule.  Exactly one of `fleetValue` and `phoneValue` is set: a
/// fleet rule is evaluated once per tick, a phone rule once per
/// registered phone.
struct AlertRule {
    std::string name;
    FleetValue fleetValue{nullptr};
    PhoneValue phoneValue{nullptr};
    Comparison op{Comparison::GreaterThan};
    double threshold{0.0};
    Severity severity{Severity::Warning};
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
    explicit AlertEngine(std::vector<AlertRule> rules = {});

    /// Evaluates every rule in order: a fleet rule on `window`, a phone
    /// rule on each entry of `phones`.
    void evaluate(sim::TimePoint now, const WindowStats& window,
                  const std::vector<PhoneSilence>& phones);

    [[nodiscard]] const std::vector<AlertEvent>& log() const { return log_; }
    [[nodiscard]] std::uint64_t fired() const { return fired_; }
    [[nodiscard]] std::uint64_t cleared() const { return cleared_; }
    [[nodiscard]] std::size_t activeCount() const { return fired_ - cleared_; }
    /// Active alerts as "rule" or "rule/phone", sorted by rule then phone.
    [[nodiscard]] std::vector<std::string> activeLabels() const;

private:
    void evaluateOne(sim::TimePoint now, std::size_t ruleIdx, const std::string& phone,
                     std::optional<double> value);

    std::vector<AlertRule> rules_;
    /// (rule index, phone) -> currently firing.
    std::map<std::pair<std::size_t, std::string>, bool> state_;
    std::vector<AlertEvent> log_;
    std::uint64_t fired_{0};
    std::uint64_t cleared_{0};
};

}  // namespace symfail::monitor
