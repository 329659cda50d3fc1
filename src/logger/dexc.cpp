#include "logger/dexc.hpp"

#include "crash/fields.hpp"
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
        // The time is checked, not kept: a line counts only if every
        // field reads whole.
        const auto us = crash::parseField<std::int64_t>(fields[1]);
        const auto type = crash::parseField<int>(fields[3]);
        const auto category = symbos::parsePanicCategory(fields[2]);
        if (!us || !type || !category) continue;
        out.push_back(symbos::PanicId{*category, *type});
    }
    return out;
}

}  // namespace symfail::logger
