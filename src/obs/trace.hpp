// Tracepoints: the simulator's equivalent of the paper's Symbian logger.
//
// Every layer of the simulation (event dispatch, panics, phone lifecycle,
// heartbeats, transport frames, fleet enrollment) reports what it is doing
// to a `TraceSink` attached to the simulator.  Events are keyed to
// *simulated* time, so a trace replays bit-identically for a given seed —
// no host clock ever leaks into a trace file.
//
// Sinks:
//   * nullptr (the default)  — tracing compiled out of the hot path behind
//     a single pointer test; campaigns without a sink are bit-identical to
//     a build that never heard of tracing;
//   * NullTraceSink          — accepts and discards everything; used to
//     measure the pure instrumentation overhead;
//   * ChromeTraceWriter      — renders Chrome trace_event JSON, loadable
//     in Perfetto (ui.perfetto.dev) or chrome://tracing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simkernel/time.hpp"

namespace symfail::obs {

/// One key/value annotation on a trace event.  Values are copied into the
/// sink immediately, so temporaries (e.g. a `toString` result) are safe as
/// long as they outlive the emitting call.
struct TraceArg {
    enum class Kind : std::uint8_t { Str, Int, Float, Bool };

    std::string_view key;
    Kind kind{Kind::Str};
    std::string_view str{};
    std::int64_t i64{0};
    double f64{0.0};

    constexpr TraceArg(std::string_view k, std::string_view v)
        : key{k}, kind{Kind::Str}, str{v} {}
    constexpr TraceArg(std::string_view k, const char* v)
        : key{k}, kind{Kind::Str}, str{v} {}
    constexpr TraceArg(std::string_view k, const std::string& v)
        : key{k}, kind{Kind::Str}, str{v} {}
    constexpr TraceArg(std::string_view k, int v)
        : key{k}, kind{Kind::Int}, i64{v} {}
    constexpr TraceArg(std::string_view k, long v)
        : key{k}, kind{Kind::Int}, i64{v} {}
    constexpr TraceArg(std::string_view k, long long v)
        : key{k}, kind{Kind::Int}, i64{v} {}
    constexpr TraceArg(std::string_view k, unsigned v)
        : key{k}, kind{Kind::Int}, i64{static_cast<std::int64_t>(v)} {}
    constexpr TraceArg(std::string_view k, unsigned long v)
        : key{k}, kind{Kind::Int}, i64{static_cast<std::int64_t>(v)} {}
    constexpr TraceArg(std::string_view k, unsigned long long v)
        : key{k}, kind{Kind::Int}, i64{static_cast<std::int64_t>(v)} {}
    constexpr TraceArg(std::string_view k, double v)
        : key{k}, kind{Kind::Float}, f64{v} {}
    constexpr TraceArg(std::string_view k, bool v)
        : key{k}, kind{Kind::Bool}, i64{v ? 1 : 0} {}
};

using TraceArgs = std::span<const TraceArg>;

/// Receiver for trace events.  Implementations must be deterministic
/// functions of the event stream (no host time, no allocation-order
/// dependence) so that traced campaigns replay byte-identically.
class TraceSink {
public:
    virtual ~TraceSink() = default;

    /// Registers (or looks up) a named track; events carry a track id.
    /// Tracks render as threads in Perfetto — one per phone, plus "sim"
    /// (track 0 by convention) and "fleet".
    virtual std::uint32_t registerTrack(std::string_view name) = 0;

    /// A point event at `at`.
    virtual void instant(std::uint32_t track, std::string_view category,
                         std::string_view name, sim::TimePoint at,
                         TraceArgs args) = 0;

    /// An interval [start, start + duration) of simulated time.
    virtual void span(std::uint32_t track, std::string_view category,
                      std::string_view name, sim::TimePoint start,
                      sim::Duration duration, TraceArgs args) = 0;

    /// A sampled numeric series (rendered as a counter graph).
    virtual void counter(std::uint32_t track, std::string_view name,
                         sim::TimePoint at, double value) = 0;

    // Flow events: causal arrows stitching one logical item (a provenance
    // flow) across tracks — Perfetto renders begin/step/end points sharing
    // `flowId` as a connected chain.  Default no-ops so existing sinks
    // keep compiling; ChromeTraceWriter emits Chrome's 's'/'t'/'f' phases.
    virtual void flowBegin(std::uint32_t /*track*/, std::string_view /*category*/,
                           std::string_view /*name*/, sim::TimePoint /*at*/,
                           std::uint64_t /*flowId*/, TraceArgs /*args*/) {}
    virtual void flowStep(std::uint32_t /*track*/, std::string_view /*category*/,
                          std::string_view /*name*/, sim::TimePoint /*at*/,
                          std::uint64_t /*flowId*/) {}
    virtual void flowEnd(std::uint32_t /*track*/, std::string_view /*category*/,
                         std::string_view /*name*/, sim::TimePoint /*at*/,
                         std::uint64_t /*flowId*/) {}

    // Argument-free conveniences.
    void instant(std::uint32_t track, std::string_view category,
                 std::string_view name, sim::TimePoint at) {
        instant(track, category, name, at, TraceArgs{});
    }
    void span(std::uint32_t track, std::string_view category,
              std::string_view name, sim::TimePoint start, sim::Duration duration) {
        span(track, category, name, start, duration, TraceArgs{});
    }
};

/// Discards everything; exists to measure the cost of the tracepoints
/// themselves (one virtual call per event).
class NullTraceSink final : public TraceSink {
public:
    using TraceSink::instant;
    using TraceSink::span;

    std::uint32_t registerTrack(std::string_view) override { return nextTrack_++; }
    void instant(std::uint32_t, std::string_view, std::string_view, sim::TimePoint,
                 TraceArgs) override {}
    void span(std::uint32_t, std::string_view, std::string_view, sim::TimePoint,
              sim::Duration, TraceArgs) override {}
    void counter(std::uint32_t, std::string_view, sim::TimePoint, double) override {}

private:
    std::uint32_t nextTrack_{1};
};

/// Renders Chrome trace_event JSON (the array-of-events format Perfetto
/// and chrome://tracing load directly).  Events are serialized on arrival
/// into a growing buffer; `json()` stitches the final document.  A hard
/// event cap bounds memory on long campaigns — events past the cap are
/// counted, not stored, and the drop count is recorded in trace metadata.
class ChromeTraceWriter final : public TraceSink {
public:
    struct Options {
        /// Maximum stored events; 0 means unlimited.
        std::size_t maxEvents = 2'000'000;
    };

    using TraceSink::instant;
    using TraceSink::span;

    ChromeTraceWriter() : ChromeTraceWriter{Options{}} {}
    explicit ChromeTraceWriter(Options options);

    std::uint32_t registerTrack(std::string_view name) override;
    void instant(std::uint32_t track, std::string_view category,
                 std::string_view name, sim::TimePoint at, TraceArgs args) override;
    void span(std::uint32_t track, std::string_view category, std::string_view name,
              sim::TimePoint start, sim::Duration duration, TraceArgs args) override;
    void counter(std::uint32_t track, std::string_view name, sim::TimePoint at,
                 double value) override;
    void flowBegin(std::uint32_t track, std::string_view category,
                   std::string_view name, sim::TimePoint at, std::uint64_t flowId,
                   TraceArgs args) override;
    void flowStep(std::uint32_t track, std::string_view category,
                  std::string_view name, sim::TimePoint at,
                  std::uint64_t flowId) override;
    void flowEnd(std::uint32_t track, std::string_view category,
                 std::string_view name, sim::TimePoint at,
                 std::uint64_t flowId) override;

    /// The complete trace document (write it with obs::writeFile).
    [[nodiscard]] std::string json() const;

    [[nodiscard]] std::size_t eventCount() const { return events_.size(); }
    [[nodiscard]] std::size_t droppedEvents() const { return dropped_; }

private:
    [[nodiscard]] bool admit();
    void appendArgs(std::string& out, TraceArgs args);
    void appendFlow(char phase, std::uint32_t track, std::string_view category,
                    std::string_view name, sim::TimePoint at, std::uint64_t flowId,
                    TraceArgs args);

    Options options_;
    std::vector<std::string> trackNames_;
    std::vector<std::string> events_;  ///< Pre-rendered JSON objects.
    std::size_t dropped_{0};
};

/// Appends `s` to `out` with JSON string escaping (quotes not included).
void appendJsonEscaped(std::string& out, std::string_view s);

/// `s` as an escaped, quoted JSON string.
[[nodiscard]] std::string jsonString(std::string_view s);

/// `value` printed as `%.<precision>g`; NaN and infinities, which JSON
/// cannot represent, are written as null.
[[nodiscard]] std::string jsonNum(double value, int precision = 6);

}  // namespace symfail::obs
