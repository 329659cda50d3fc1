#include "forum/taxonomy.hpp"

namespace symfail::forum {

std::string_view toString(FailureType t) {
    switch (t) {
        case FailureType::Freeze: return "freeze";
        case FailureType::SelfShutdown: return "self-shutdown";
        case FailureType::UnstableBehavior: return "unstable behavior";
        case FailureType::OutputFailure: return "output failure";
        case FailureType::InputFailure: return "input failure";
    }
    return "?";
}

std::string_view toString(RecoveryAction r) {
    switch (r) {
        case RecoveryAction::Unreported: return "unreported";
        case RecoveryAction::RepeatAction: return "repeat";
        case RecoveryAction::Wait: return "wait";
        case RecoveryAction::Reboot: return "reboot";
        case RecoveryAction::RemoveBattery: return "battery removal";
        case RecoveryAction::ServicePhone: return "service phone";
    }
    return "?";
}

Severity severityOf(RecoveryAction r) {
    switch (r) {
        case RecoveryAction::ServicePhone: return Severity::High;
        case RecoveryAction::Reboot:
        case RecoveryAction::RemoveBattery: return Severity::Medium;
        case RecoveryAction::RepeatAction:
        case RecoveryAction::Wait: return Severity::Low;
        case RecoveryAction::Unreported: return Severity::Unknown;
    }
    return Severity::Unknown;
}

std::span<const PaperTable1Cell> paperTable1() {
    using FT = FailureType;
    using RA = RecoveryAction;
    // Reconstructed from Table 1; row sums reproduce the paper's failure
    // type marginals (freeze 25.3%, output 36.3%, input 3.0%,
    // self-shutdown 16.9%, unstable 18.5%).
    static constexpr std::array<PaperTable1Cell, 30> kTable{{
        {FT::Freeze, RA::Unreported, 6.01},
        {FT::Freeze, RA::RepeatAction, 0.00},
        {FT::Freeze, RA::Wait, 4.29},
        {FT::Freeze, RA::RemoveBattery, 9.01},
        {FT::Freeze, RA::Reboot, 2.36},
        {FT::Freeze, RA::ServicePhone, 3.65},

        {FT::OutputFailure, RA::Unreported, 13.73},
        {FT::OutputFailure, RA::RepeatAction, 5.79},
        {FT::OutputFailure, RA::Wait, 0.64},
        {FT::OutputFailure, RA::RemoveBattery, 0.43},
        {FT::OutputFailure, RA::Reboot, 8.80},
        {FT::OutputFailure, RA::ServicePhone, 6.87},

        {FT::InputFailure, RA::Unreported, 0.86},
        {FT::InputFailure, RA::RepeatAction, 0.64},
        {FT::InputFailure, RA::Wait, 0.00},
        {FT::InputFailure, RA::RemoveBattery, 0.21},
        {FT::InputFailure, RA::Reboot, 0.64},
        {FT::InputFailure, RA::ServicePhone, 0.64},

        {FT::SelfShutdown, RA::Unreported, 7.73},
        {FT::SelfShutdown, RA::RepeatAction, 0.00},
        {FT::SelfShutdown, RA::Wait, 0.43},
        {FT::SelfShutdown, RA::RemoveBattery, 2.15},
        {FT::SelfShutdown, RA::Reboot, 0.00},
        {FT::SelfShutdown, RA::ServicePhone, 6.65},

        {FT::UnstableBehavior, RA::Unreported, 8.80},
        {FT::UnstableBehavior, RA::RepeatAction, 0.64},
        {FT::UnstableBehavior, RA::Wait, 0.21},
        {FT::UnstableBehavior, RA::RemoveBattery, 0.21},
        {FT::UnstableBehavior, RA::Reboot, 1.72},
        {FT::UnstableBehavior, RA::ServicePhone, 6.87},
    }};
    return kTable;
}

double paperFailureTypePercent(FailureType t) {
    double total = 0.0;
    for (const auto& cell : paperTable1()) {
        if (cell.type == t) total += cell.percent;
    }
    return total;
}

}  // namespace symfail::forum
