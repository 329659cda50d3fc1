#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>

namespace symfail::obs {
namespace {

void appendInt(std::string& out, std::int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
}

}  // namespace

void appendJsonEscaped(std::string& out, std::string_view s) {
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

std::string jsonString(std::string_view s) {
    std::string out = "\"";
    appendJsonEscaped(out, s);
    out += '"';
    return out;
}

std::string jsonNum(double value, int precision) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    return buf;
}

ChromeTraceWriter::ChromeTraceWriter(Options options) : options_{options} {
    // Track 0 is the simulator's own track by convention; components
    // register per-phone tracks on top.
    trackNames_.emplace_back("sim");
}

std::uint32_t ChromeTraceWriter::registerTrack(std::string_view name) {
    for (std::size_t i = 0; i < trackNames_.size(); ++i) {
        if (trackNames_[i] == name) return static_cast<std::uint32_t>(i);
    }
    trackNames_.emplace_back(name);
    return static_cast<std::uint32_t>(trackNames_.size() - 1);
}

bool ChromeTraceWriter::admit() {
    if (options_.maxEvents != 0 && events_.size() >= options_.maxEvents) {
        ++dropped_;
        return false;
    }
    return true;
}

void ChromeTraceWriter::appendArgs(std::string& out, TraceArgs args) {
    out += ",\"args\":{";
    bool first = true;
    for (const TraceArg& arg : args) {
        if (!first) out += ',';
        first = false;
        out += jsonString(arg.key);
        out += ':';
        switch (arg.kind) {
            case TraceArg::Kind::Str: out += jsonString(arg.str); break;
            case TraceArg::Kind::Int: appendInt(out, arg.i64); break;
            case TraceArg::Kind::Float: out += jsonNum(arg.f64, 10); break;
            case TraceArg::Kind::Bool: out += arg.i64 != 0 ? "true" : "false"; break;
        }
    }
    out += '}';
}

void ChromeTraceWriter::instant(std::uint32_t track, std::string_view category,
                                std::string_view name, sim::TimePoint at,
                                TraceArgs args) {
    if (!admit()) return;
    std::string event = R"({"ph":"i","s":"t","pid":1,"tid":)";
    appendInt(event, track);
    event += ",\"ts\":";
    appendInt(event, at.micros());
    event += ",\"cat\":";
    event += jsonString(category);
    event += ",\"name\":";
    event += jsonString(name);
    if (!args.empty()) appendArgs(event, args);
    event += '}';
    events_.push_back(std::move(event));
}

void ChromeTraceWriter::span(std::uint32_t track, std::string_view category,
                             std::string_view name, sim::TimePoint start,
                             sim::Duration duration, TraceArgs args) {
    if (!admit()) return;
    std::string event = R"({"ph":"X","pid":1,"tid":)";
    appendInt(event, track);
    event += ",\"ts\":";
    appendInt(event, start.micros());
    event += ",\"dur\":";
    appendInt(event, duration.totalMicros());
    event += ",\"cat\":";
    event += jsonString(category);
    event += ",\"name\":";
    event += jsonString(name);
    if (!args.empty()) appendArgs(event, args);
    event += '}';
    events_.push_back(std::move(event));
}

void ChromeTraceWriter::counter(std::uint32_t track, std::string_view name,
                                sim::TimePoint at, double value) {
    if (!admit()) return;
    std::string event = R"({"ph":"C","pid":1,"tid":)";
    appendInt(event, track);
    event += ",\"ts\":";
    appendInt(event, at.micros());
    event += ",\"name\":";
    event += jsonString(name);
    event += ",\"args\":{\"value\":";
    event += jsonNum(value, 10);
    event += "}}";
    events_.push_back(std::move(event));
}

namespace {

/// Chrome flow-event phases: 's' starts a flow, 't' continues it, 'f'
/// (with "bp":"e" so the arrow binds to the enclosing point) ends it.
constexpr char kFlowStart = 's';
constexpr char kFlowStep = 't';
constexpr char kFlowEnd = 'f';

}  // namespace

void ChromeTraceWriter::appendFlow(char phase, std::uint32_t track,
                                   std::string_view category,
                                   std::string_view name, sim::TimePoint at,
                                   std::uint64_t flowId, TraceArgs args) {
    if (!admit()) return;
    std::string event = "{\"ph\":\"";
    event += phase;
    event += '"';
    if (phase == kFlowEnd) event += ",\"bp\":\"e\"";
    event += ",\"id\":";
    appendInt(event, static_cast<std::int64_t>(flowId));
    event += ",\"pid\":1,\"tid\":";
    appendInt(event, track);
    event += ",\"ts\":";
    appendInt(event, at.micros());
    event += ",\"cat\":";
    event += jsonString(category);
    event += ",\"name\":";
    event += jsonString(name);
    if (!args.empty()) appendArgs(event, args);
    event += '}';
    events_.push_back(std::move(event));
}

void ChromeTraceWriter::flowBegin(std::uint32_t track, std::string_view category,
                                  std::string_view name, sim::TimePoint at,
                                  std::uint64_t flowId, TraceArgs args) {
    appendFlow(kFlowStart, track, category, name, at, flowId, args);
}

void ChromeTraceWriter::flowStep(std::uint32_t track, std::string_view category,
                                 std::string_view name, sim::TimePoint at,
                                 std::uint64_t flowId) {
    appendFlow(kFlowStep, track, category, name, at, flowId, TraceArgs{});
}

void ChromeTraceWriter::flowEnd(std::uint32_t track, std::string_view category,
                                std::string_view name, sim::TimePoint at,
                                std::uint64_t flowId) {
    appendFlow(kFlowEnd, track, category, name, at, flowId, TraceArgs{});
}

std::string ChromeTraceWriter::json() const {
    std::string out = "{\"traceEvents\":[\n";
    // Metadata first: process name, one thread_name record per track.
    out += R"({"ph":"M","pid":1,"name":"process_name","args":{"name":"symfail"}})";
    for (std::size_t i = 0; i < trackNames_.size(); ++i) {
        out += ",\n";
        out += R"({"ph":"M","pid":1,"tid":)";
        appendInt(out, static_cast<std::int64_t>(i));
        out += R"(,"name":"thread_name","args":{"name":")";
        appendJsonEscaped(out, trackNames_[i]);
        out += "\"}}";
    }
    if (dropped_ > 0) {
        out += ",\n";
        out += R"({"ph":"M","pid":1,"name":"trace_truncated","args":{"dropped_events":)";
        appendInt(out, static_cast<std::int64_t>(dropped_));
        out += "}}";
    }
    for (const std::string& event : events_) {
        out += ",\n";
        out += event;
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

}  // namespace symfail::obs
