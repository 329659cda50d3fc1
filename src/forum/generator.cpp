#include "forum/generator.hpp"

#include <array>
#include <span>
#include <string>

namespace symfail::forum {
namespace {

struct VendorModels {
    std::string_view vendor;
    std::array<std::string_view, 3> models;
    bool smart;
};

// Vendor mix per Section 4.1; the smart-phone rows are Symbian-era models.
constexpr std::array<VendorModels, 14> kVendors{{
    {"Motorola", {"V600", "RAZR V3", "E398"}, false},
    {"Nokia", {"3310", "1100", "6230"}, false},
    {"Samsung", {"E700", "D500", "X480"}, false},
    {"Sony-Ericsson", {"T610", "K700", "J300"}, false},
    {"LG", {"C1100", "U8180", "F2400"}, false},
    {"Kyocera", {"KX414", "SE47", "K10"}, false},
    {"Audiovox", {"CDM-8900", "CDM-8450", "PM-8920"}, false},
    {"HP", {"iPAQ h6315", "iPAQ hw6510", "iPAQ h6340"}, true},
    {"BlackBerry", {"7290", "7100t", "8700c"}, true},
    {"Handspring", {"Treo 600", "Treo 650", "Treo 270"}, true},
    {"Danger", {"Hiptop", "Sidekick II", "Sidekick 3"}, true},
    {"Nokia", {"6600", "3650", "N70"}, true},
    {"Sony-Ericsson", {"P800", "P910", "W950"}, true},
    {"Motorola", {"A925", "A1000", "M1000"}, true},
}};

constexpr std::array<std::string_view, 6> kFreezeSymptoms{
    "the phone freezes and stays frozen until I do something about it",
    "the screen locks up completely and nothing responds",
    "my phone froze with the menu on screen",
    "the handset hangs and will not react to any key",
    "it just freezes out of nowhere, totally stuck",
    "display frozen, phone completely unresponsive",
};
constexpr std::array<std::string_view, 5> kSelfShutdownSymptoms{
    "the phone turns itself off without warning",
    "it shuts down by itself two or three times a day",
    "my phone powers off on its own and I have to switch it back on",
    "the handset switched itself off in my pocket",
    "it keeps shutting itself down randomly",
};
constexpr std::array<std::string_view, 5> kUnstableSymptoms{
    "the backlight keeps flashing on and off by itself",
    "applications start by themselves and the screen flickers",
    "random wallpaper disappearing and power cycling, looks like UI memory leaks",
    "it behaves erratically, vibrates and beeps with nobody touching it",
    "menus open by themselves, completely erratic behavior",
};
constexpr std::array<std::string_view, 6> kOutputSymptoms{
    "the ring volume is different from the one I configured",
    "the charge indicator is wrong, shows full then dies",
    "event reminders go off at the wrong times",
    "the music volume resets itself to maximum",
    "it displays the wrong date after midnight",
    "caller id shows the wrong contact name",
};
constexpr std::array<std::string_view, 4> kInputSymptoms{
    "the soft keys do not work at all",
    "keypad presses have no effect whatsoever",
    "the joystick is ignored half the time",
    "pressing the send key does nothing",
};

constexpr std::array<std::string_view, 3> kRepeatRecovery{
    "trying the same thing again worked fine",
    "doing it a second time fixed it",
    "if I repeat the action it usually goes through",
};
constexpr std::array<std::string_view, 3> kWaitRecovery{
    "after a few minutes it came back to normal",
    "waiting a while sorted it out on its own",
    "it recovers if I leave it alone for some time",
};
constexpr std::array<std::string_view, 3> kRebootRecovery{
    "I power cycle it and it works again",
    "turning it off and on brings it back",
    "a quick reset fixes it every time",
};
constexpr std::array<std::string_view, 3> kBatteryRecovery{
    "I have to take the battery out to get it back",
    "only pulling the battery helps",
    "removing the battery is the only way to recover it",
};
constexpr std::array<std::string_view, 4> kServiceRecovery{
    "took it to the service center and they flashed new firmware",
    "the shop did a master reset and wiped everything",
    "they had to replace the unit under warranty",
    "needed a firmware update at the dealer to fix it",
};

constexpr std::array<std::string_view, 4> kVoiceCallContexts{
    "whenever I am on a voice call",
    "in the middle of a phone call",
    "every time I answer a call",
    "during long calls",
};
constexpr std::array<std::string_view, 4> kTextMessageContexts{
    "whenever I try to write a text message",
    "while sending an SMS",
    "when a text message arrives",
    "halfway through composing a text",
};
constexpr std::array<std::string_view, 3> kBluetoothContexts{
    "while using bluetooth",
    "when transferring files over bluetooth",
    "with the bluetooth headset connected",
};
constexpr std::array<std::string_view, 3> kImagesContexts{
    "while viewing pictures",
    "when taking a photo",
    "browsing the image gallery",
};

constexpr std::array<std::string_view, 8> kNoisePosts{
    "what is the best ringtone site for my %M?",
    "just got the %M, loving the screen so far",
    "how do I sync contacts from outlook to the %M?",
    "anyone compared plans for the %M?",
    "where can I download games for the %M?",
    "thinking of selling my %M, what is it worth?",
    "can the %M use the same charger as the %M?",
    "which case do you recommend for the %M?",
};

std::string_view pickPhrase(sim::Rng& rng, std::span<const std::string_view> bank) {
    return bank[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(bank.size()) - 1))];
}

FailureType sampleJoint(sim::Rng& rng, RecoveryAction& recovery) {
    const auto table = paperTable1();
    std::vector<double> weights;
    weights.reserve(table.size());
    for (const auto& cell : table) weights.push_back(cell.percent + 1e-9);
    const auto& cell = table[rng.discrete(weights)];
    recovery = cell.recovery;
    return cell.type;
}

std::string substituteModel(std::string_view text, const std::string& model) {
    std::string out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '%' && i + 1 < text.size() && text[i + 1] == 'M') {
            out += model;
            ++i;
        } else {
            out += text[i];
        }
    }
    return out;
}

/// Non-failure posts per failure report (noise the filter removes).
constexpr double kNoiseRatio = 1.5;
/// Fraction of failure reports from smart phones (paper: 22.3%).
constexpr double kSmartPhoneShare = 0.223;
/// Activity-mention rates (paper: calls 13%, SMS 5.4%, BT 3.6%,
/// images 2.4%).
constexpr double kVoiceCallShare = 0.130;
constexpr double kTextMessageShare = 0.054;
constexpr double kBluetoothShare = 0.036;
constexpr double kImagesShare = 0.024;

}  // namespace

std::vector<ForumReport> generateCorpus(const CorpusConfig& config, std::uint64_t seed) {
    sim::Rng rng{seed};
    std::vector<ForumReport> corpus;
    const int noisePosts =
        static_cast<int>(kNoiseRatio * config.failureReports);
    corpus.reserve(static_cast<std::size_t>(config.failureReports + noisePosts));

    auto pickVendor = [&](bool smart) -> const VendorModels& {
        while (true) {
            const auto& v = kVendors[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(kVendors.size()) - 1))];
            if (v.smart == smart) return v;
        }
    };

    for (int i = 0; i < config.failureReports; ++i) {
        ForumReport report;
        report.smartPhone = rng.bernoulli(kSmartPhoneShare);
        const auto& vendor = pickVendor(report.smartPhone);
        report.model = std::string{vendor.vendor} + " " +
                       std::string{pickPhrase(rng, vendor.models)};
        report.year = static_cast<int>(rng.uniformInt(2003, 2006));
        report.label.isFailureReport = true;
        report.label.type = sampleJoint(rng, report.label.recovery);

        // Symptom sentence.
        std::string_view symptom;
        switch (report.label.type) {
            case FailureType::Freeze: symptom = pickPhrase(rng, kFreezeSymptoms); break;
            case FailureType::SelfShutdown:
                symptom = pickPhrase(rng, kSelfShutdownSymptoms);
                break;
            case FailureType::UnstableBehavior:
                symptom = pickPhrase(rng, kUnstableSymptoms);
                break;
            case FailureType::OutputFailure:
                symptom = pickPhrase(rng, kOutputSymptoms);
                break;
            case FailureType::InputFailure:
                symptom = pickPhrase(rng, kInputSymptoms);
                break;
        }

        // Activity context at the paper's rates.
        const double r = rng.uniform01();
        std::string_view context;
        if (r < kVoiceCallShare) {
            context = pickPhrase(rng, kVoiceCallContexts);
        } else if (r < kVoiceCallShare + kTextMessageShare) {
            context = pickPhrase(rng, kTextMessageContexts);
        } else if (r < kVoiceCallShare + kTextMessageShare + kBluetoothShare) {
            context = pickPhrase(rng, kBluetoothContexts);
        } else if (r < kVoiceCallShare + kTextMessageShare + kBluetoothShare +
                           kImagesShare) {
            context = pickPhrase(rng, kImagesContexts);
        }

        report.text = "my " + report.model + ": " + std::string{symptom};
        if (!context.empty()) {
            report.text += " ";
            report.text += context;
        }
        report.text += ".";
        switch (report.label.recovery) {
            case RecoveryAction::Unreported: break;
            case RecoveryAction::RepeatAction:
                report.text += " " + std::string{pickPhrase(rng, kRepeatRecovery)} + ".";
                break;
            case RecoveryAction::Wait:
                report.text += " " + std::string{pickPhrase(rng, kWaitRecovery)} + ".";
                break;
            case RecoveryAction::Reboot:
                report.text += " " + std::string{pickPhrase(rng, kRebootRecovery)} + ".";
                break;
            case RecoveryAction::RemoveBattery:
                report.text += " " + std::string{pickPhrase(rng, kBatteryRecovery)} + ".";
                break;
            case RecoveryAction::ServicePhone:
                report.text += " " + std::string{pickPhrase(rng, kServiceRecovery)} + ".";
                break;
        }
        corpus.push_back(std::move(report));
    }

    for (int i = 0; i < noisePosts; ++i) {
        ForumReport report;
        report.smartPhone = rng.bernoulli(0.2);
        const auto& vendor = pickVendor(report.smartPhone);
        report.model = std::string{vendor.vendor} + " " +
                       std::string{pickPhrase(rng, vendor.models)};
        report.year = static_cast<int>(rng.uniformInt(2003, 2006));
        report.label.isFailureReport = false;
        report.text = substituteModel(pickPhrase(rng, kNoisePosts), report.model);
        corpus.push_back(std::move(report));
    }

    rng.shuffle(corpus);
    return corpus;
}

}  // namespace symfail::forum
