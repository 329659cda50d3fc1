#include "osfault/validity.hpp"

#include <cstdio>

namespace symfail::osfault {
namespace {

std::string pct(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

}  // namespace

std::string firstViolation(const ValidityReport& report,
                           const ValidityBounds& bounds) {
    const auto& e = report.evaluation;
    if (e.freezeDetection.precision() < bounds.minFreezePrecision) {
        return "freeze precision " + pct(e.freezeDetection.precision()) + " < " +
               pct(bounds.minFreezePrecision);
    }
    if (e.freezeDetection.recall() < bounds.minFreezeRecall) {
        return "freeze recall " + pct(e.freezeDetection.recall()) + " < " +
               pct(bounds.minFreezeRecall);
    }
    if (e.selfShutdownDetection.precision() < bounds.minSelfShutdownPrecision) {
        return "self-shutdown precision " +
               pct(e.selfShutdownDetection.precision()) + " < " +
               pct(bounds.minSelfShutdownPrecision);
    }
    if (e.selfShutdownDetection.recall() < bounds.minSelfShutdownRecall) {
        return "self-shutdown recall " + pct(e.selfShutdownDetection.recall()) +
               " < " + pct(bounds.minSelfShutdownRecall);
    }
    if (e.panicCaptureRate() < bounds.minPanicCaptureRate) {
        return "panic capture rate " + pct(e.panicCaptureRate()) + " < " +
               pct(bounds.minPanicCaptureRate);
    }
    return {};
}

std::string render(const ValidityReport& report) {
    const auto& e = report.evaluation;
    const auto& p = report.planes;
    std::string out;
    auto score = [&](const char* name, const analysis::DetectionScore& s) {
        out += "osfault recovery ";
        out += name;
        out += ": precision=" + pct(s.precision()) + " recall=" + pct(s.recall()) +
               " f1=" + pct(s.f1()) + " (tp=" + std::to_string(s.truePositives) +
               " fp=" + std::to_string(s.falsePositives) +
               " fn=" + std::to_string(s.falseNegatives) + ")\n";
    };
    score("freeze", e.freezeDetection);
    score("self-shutdown", e.selfShutdownDetection);
    out += "osfault recovery panic-capture: rate=" + pct(e.panicCaptureRate()) +
           " (logged=" + std::to_string(e.panicsLogged) +
           " injected=" + std::to_string(e.panicsInjected) + ")\n";
    out += "osfault plane flash: activations=" +
           std::to_string(p.flash.activations) +
           " bit-flips=" + std::to_string(p.flash.bitFlips) +
           " torn-writes=" + std::to_string(p.flash.tornWrites) +
           " dropped-writes=" + std::to_string(p.flash.droppedWrites) + "\n";
    out += "osfault plane memory: episodes=" + std::to_string(p.memory.episodes) +
           " oom-kills=" + std::to_string(p.memory.oomKills) +
           " restarts=" + std::to_string(p.memory.restarts) + "\n";
    out += "osfault plane clock: jumps=" + std::to_string(p.clock.jumps) +
           " backward=" + std::to_string(p.clock.backwardJumps) +
           " monotonicity-violations=" +
           std::to_string(p.clock.monotonicityViolations) + "\n";
    out += "osfault plane radio: activations=" +
           std::to_string(p.radio.activations) +
           " link-drops=" + std::to_string(p.radio.linkDrops) +
           " modem-resets=" + std::to_string(p.radio.modemResets) +
           " stale-windows=" + std::to_string(p.radio.staleWindows) + "\n";
    return out;
}

}  // namespace symfail::osfault
