#include "monitor/alerts.hpp"

#include <algorithm>

namespace symfail::monitor {

std::string_view toString(Severity severity) {
    switch (severity) {
        case Severity::Info: return "INFO";
        case Severity::Warning: return "WARNING";
        case Severity::Critical: return "CRITICAL";
    }
    return "?";
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules) : rules_{std::move(rules)} {}

namespace {

bool satisfies(Comparison op, double value, double threshold) {
    switch (op) {
        case Comparison::GreaterThan: return value > threshold;
        case Comparison::GreaterOrEqual: return value >= threshold;
        case Comparison::LessThan: return value < threshold;
    }
    return false;
}

}  // namespace

void AlertEngine::evaluateOne(sim::TimePoint now, std::size_t ruleIdx,
                              const std::string& phone, std::optional<double> value) {
    const AlertRule& rule = rules_[ruleIdx];
    bool& firing = state_[{ruleIdx, phone}];
    bool condition = false;
    if (value) {
        // Hysteresis: an already-firing alert is held against the clear
        // threshold, so a value hovering at the line does not flap.
        const double threshold =
            firing ? rule.clearThreshold.value_or(rule.threshold) : rule.threshold;
        condition = satisfies(rule.op, *value, threshold);
    }
    if (condition == firing) return;
    firing = condition;
    if (condition) {
        ++fired_;
    } else {
        ++cleared_;
    }
    log_.push_back(AlertEvent{now, rule.name, phone, condition, value.value_or(0.0),
                              rule.severity});
}

void AlertEngine::evaluate(sim::TimePoint now, const WindowStats& window,
                           const std::vector<PhoneSilence>& phones) {
    for (std::size_t i = 0; i < rules_.size(); ++i) {
        const AlertRule& rule = rules_[i];
        if (rule.fleetValue != nullptr) {
            evaluateOne(now, i, {}, rule.fleetValue(window));
            continue;
        }
        for (const PhoneSilence& phone : phones) {
            evaluateOne(now, i, phone.name, rule.phoneValue(phone));
        }
    }
}

std::vector<std::string> AlertEngine::activeLabels() const {
    std::vector<std::string> labels;
    for (const auto& [key, firing] : state_) {
        if (!firing) continue;
        const auto& [ruleIdx, phone] = key;
        std::string label = rules_[ruleIdx].name;
        if (!phone.empty()) {
            label += '/';
            label += phone;
        }
        labels.push_back(std::move(label));
    }
    std::sort(labels.begin(), labels.end());
    return labels;
}

}  // namespace symfail::monitor
