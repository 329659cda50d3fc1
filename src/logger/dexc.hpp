// D_EXC — the baseline panic collector.
//
// The paper's related-work section describes D_EXC, a Symbian tool that
// collects panic events "but does not relate panic events to failure
// manifestations, running applications, and phone activities as we do".
// This is that baseline: it subscribes to the same kernel panic
// notifications as the full logger but records only the bare panic —
// no heartbeat, no boot classification, no context snapshot.  The
// baseline bench quantifies what that costs: identical Table 2, but no
// Figure 2/5, no Table 3/4, no MTBF.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "phone/device.hpp"
#include "symbos/panic.hpp"

namespace symfail::logger {

/// Minimal panic-only collector.
class DExcTool {
public:
    static constexpr std::string_view kDexcFile = "dexc";

    explicit DExcTool(phone::PhoneDevice& device);
    DExcTool(const DExcTool&) = delete;
    DExcTool& operator=(const DExcTool&) = delete;

    [[nodiscard]] const std::string& logContent() const;

    /// Parses a D_EXC log into the captured panics, in log order;
    /// malformed lines are skipped.
    [[nodiscard]] static std::vector<symbos::PanicId> parse(std::string_view content);

private:
    phone::PhoneDevice* device_;
};

}  // namespace symfail::logger
