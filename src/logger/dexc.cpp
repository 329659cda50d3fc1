#include "logger/dexc.hpp"

#include <charconv>

#include "logger/records.hpp"

namespace symfail::logger {

DExcTool::DExcTool(phone::PhoneDevice& device) : device_{&device} {
    device_->kernel().addPanicHook([this](const symbos::PanicEvent& event) {
        if (device_->state() != phone::PhoneDevice::PowerState::On) return;
        device_->flash().appendLine(
            kDexcFile, "DEXC|" + std::to_string(event.time.micros()) + "|" +
                           std::string{symbos::toString(event.id.category)} + "|" +
                           std::to_string(event.id.type));
    });
}

const std::string& DExcTool::logContent() const {
    return device_->flash().content(kDexcFile);
}

std::vector<symbos::PanicId> DExcTool::parse(std::string_view content) {
    std::vector<symbos::PanicId> out;
    std::size_t start = 0;
    while (start < content.size()) {
        std::size_t nl = content.find('\n', start);
        if (nl == std::string_view::npos) nl = content.size();
        const std::string_view line = content.substr(start, nl - start);
        start = nl + 1;
        const auto fields = splitFields(line, '|');
        if (fields.size() != 4 || fields[0] != "DEXC") continue;
        std::int64_t us = 0;
        std::int64_t type = 0;
        const auto r1 =
            std::from_chars(fields[1].data(), fields[1].data() + fields[1].size(), us);
        const auto r2 = std::from_chars(fields[3].data(),
                                        fields[3].data() + fields[3].size(), type);
        if (r1.ec != std::errc{} || r2.ec != std::errc{}) continue;
        const auto category = symbos::parsePanicCategory(fields[2]);
        if (!category) continue;
        out.push_back(symbos::PanicId{*category, static_cast<int>(type)});
    }
    return out;
}

}  // namespace symfail::logger
