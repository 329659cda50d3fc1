#include "logger/user_reports.hpp"

namespace symfail::logger {

/// Delay between the failure and the report (lognormal median and sigma).
constexpr sim::Duration kReportDelayMedian = sim::Duration::minutes(3);
constexpr double kReportDelaySigma = 0.8;

UserReportChannel::UserReportChannel(phone::PhoneDevice& device,
                                     UserReportConfig config, std::uint64_t seed)
    : device_{&device}, config_{config}, rng_{seed} {
    device_->addOutputFailureHook([this](const std::string& symptom) {
        if (!rng_.bernoulli(config_.reportProbability)) return;
        const auto delay =
            rng_.lognormalDuration(kReportDelayMedian, kReportDelaySigma);
        const auto bootCount = device_->bootCount();
        device_->simulator().scheduleAfter(
            delay, "logger", [this, bootCount, symptom]() {
                // The user forgets if the phone rebooted or froze meanwhile.
                if (device_->bootCount() != bootCount || !device_->isOn()) return;
                UserReportRecord record;
                record.time = device_->simulator().now();
                record.symptom = symptom;
                device_->flash().appendLine(kLogFile, serialize(record));
                ++filed_;
            });
    });
}

}  // namespace symfail::logger
