#include "monitor/monitor.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/provenance.hpp"
#include "obs/trace.hpp"  // jsonNum, jsonString

namespace symfail::monitor {
namespace {

void appendf(std::string& out, const char* format, auto... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, format, args...);
    out += buf;
}

void appendStringArray(std::string& out, const std::vector<std::string>& items) {
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        out += obs::jsonString(items[i]);
    }
    out += ']';
}

sim::TimePoint entryTime(const logger::LogFileEntry& entry) {
    switch (entry.type) {
        case logger::LogFileEntry::Type::Panic: return entry.panic.time;
        case logger::LogFileEntry::Type::Boot: return entry.boot.time;
        case logger::LogFileEntry::Type::UserReport: return entry.userReport.time;
        case logger::LogFileEntry::Type::Meta: return entry.meta.time;
        case logger::LogFileEntry::Type::Dump: return entry.dump.time;
    }
    return {};
}

/// Max-pooled ASCII sparkline over `values`, at most `width` columns.
std::string sparkline(const std::vector<double>& values, std::size_t width) {
    static constexpr std::string_view kLevels = " .:-=+*#%@";
    if (values.empty()) return {};
    width = std::min(width, values.size());
    std::vector<double> pooled(width, 0.0);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::size_t bucket = i * width / values.size();
        pooled[bucket] = std::max(pooled[bucket], values[i]);
    }
    const double peak = *std::max_element(pooled.begin(), pooled.end());
    std::string out;
    out.reserve(width);
    for (const double v : pooled) {
        std::size_t level = 0;
        if (peak > 0.0) {
            level = static_cast<std::size_t>(v / peak *
                                             static_cast<double>(kLevels.size() - 1));
        }
        out += kLevels[std::min(level, kLevels.size() - 1)];
    }
    return out;
}

}  // namespace

std::string_view toString(Liveness liveness) {
    switch (liveness) {
        case Liveness::NotEnrolled: return "not-enrolled";
        case Liveness::Healthy: return "healthy";
        case Liveness::SilentOutage: return "silent-outage";
        case Liveness::SilentSuspect: return "silent-suspect";
    }
    return "?";
}

std::vector<AlertRule> defaultRules(const MonitorConfig& config) {
    std::vector<AlertRule> rules;
    // Fleet failure rate: the paper's steady state is ~7 failures per 1000
    // observed hours (MTBFr 313 h + MTBS 250 h); twice that is a spike.
    rules.push_back(AlertRule{
        .name = "fleet-failure-rate-high",
        .fleetValue = [](const WindowStats& w) -> std::optional<double> {
            if (w.observedHours <= 0.0) return std::nullopt;
            return w.failureRatePerKiloHour;
        },
        .op = Comparison::GreaterThan,
        .threshold = 15.0,
        .severity = Severity::Warning,
        .clearThreshold = 12.0});
    // Windowed MTBF floor: combined paper MTBF is ~139 h; below 60 h the
    // fleet is failing at better than twice the expected pace.
    rules.push_back(AlertRule{
        .name = "fleet-mtbf-low",
        .fleetValue = [](const WindowStats& w) -> std::optional<double> {
            if (w.freezes + w.selfShutdowns == 0) return std::nullopt;
            return w.mtbfAnyHours;
        },
        .op = Comparison::LessThan,
        .threshold = 60.0,
        .severity = Severity::Critical,
        .clearThreshold = 75.0});
    // Upload silence, attributed: while the upload path is in a known
    // outage window the device cannot be blamed, and vice versa.
    rules.push_back(AlertRule{
        .name = "phone-silent",
        .phoneValue = [](const PhoneSilence& p) -> std::optional<double> {
            if (p.inOutage) return std::nullopt;
            return p.hours;
        },
        .op = Comparison::GreaterThan,
        .threshold = config.silenceHours,
        .severity = Severity::Critical,
        .clearThreshold = std::nullopt});
    rules.push_back(AlertRule{
        .name = "phone-outage",
        .phoneValue = [](const PhoneSilence& p) -> std::optional<double> {
            if (!p.inOutage) return std::nullopt;
            return p.hours;
        },
        .op = Comparison::GreaterThan,
        .threshold = config.silenceHours,
        .severity = Severity::Warning,
        .clearThreshold = std::nullopt});
    // Reliability regressing: the windowed Laplace trend is ~N(0,1)
    // under a constant failure rate, so a sustained value above 2 means
    // failures are clustering late in the window — the fitted intensity
    // trend has inverted from growth to degradation.  The normal
    // approximation is unusable on a handful of events; stay silent until
    // the window holds a real sample.
    rules.push_back(AlertRule{
        .name = "reliability-regressing",
        .fleetValue = [](const WindowStats& w) -> std::optional<double> {
            if (w.freezes + w.selfShutdowns < 6) return std::nullopt;
            return w.laplaceTrend;
        },
        .op = Comparison::GreaterThan,
        .threshold = 2.0,
        .severity = Severity::Warning,
        .clearThreshold = 1.0});
    // Burst activity: multi-panic bursts are normal (~25% of bursts), so
    // only an elevated windowed count is noteworthy.
    rules.push_back(AlertRule{
        .name = "panic-burst-activity",
        .fleetValue = [](const WindowStats& w) -> std::optional<double> {
            return static_cast<double>(w.multiBursts);
        },
        .op = Comparison::GreaterOrEqual,
        .threshold = 3.0,
        .severity = Severity::Info,
        .clearThreshold = 2.0});
    // Family-scoped burst: at the paper's rates the busiest crash family
    // collects ~4 dumps per weekly window; ten means one failure mechanism
    // is running hot across the fleet.
    rules.push_back(AlertRule{
        .name = "crash-family-burst",
        .fleetValue = [](const WindowStats& w) -> std::optional<double> {
            return static_cast<double>(w.topFamilyDumps);
        },
        .op = Comparison::GreaterOrEqual,
        .threshold = 10.0,
        .severity = Severity::Info,
        .clearThreshold = 8.0});
    return rules;
}

FleetMonitor::FleetMonitor(MonitorConfig config)
    : config_{config},
      health_{config_.selfShutdownThresholdSeconds},
      alerts_{defaultRules(config_)} {}

void FleetMonitor::onCampaignBegin(sim::Simulator& simulator,
                                   const fleet::FleetConfig& config) {
    simulator_ = &simulator;
    // Adopt the campaign's heartbeat period: it bounds how far an HL
    // event's timestamp can trail the record stream (the finalization
    // safety margin).
    health_ = HealthEngine{config_.selfShutdownThresholdSeconds,
                           config.loggerConfig.heartbeatPeriod};
    scheduleTick();
}

void FleetMonitor::scheduleTick() {
    simulator_->scheduleAfter(config_.tick, "monitor.tick", [this]() {
        if (finalized_) return;  // the campaign ended: no further ticks
        tick(simulator_->now());
        scheduleTick();
    });
}

FleetMonitor::Presence& FleetMonitor::registerPhone(const std::string& phoneName,
                                                    sim::TimePoint at) {
    const auto [it, inserted] = presence_.try_emplace(phoneName);
    if (inserted) {
        it->second.enrollAt = at;
        it->second.lastIngestAt = at;
    }
    return it->second;
}

void FleetMonitor::onPhoneEnrolled(const std::string& phoneName,
                                   sim::TimePoint enrollAt,
                                   fleet::OutageProbe outageProbe) {
    Presence& presence = registerPhone(phoneName, enrollAt);
    presence.enrollAt = enrollAt;
    presence.lastIngestAt = enrollAt;
    presence.probe = std::move(outageProbe);
}

void FleetMonitor::consumeLines(const std::string& phoneName,
                                std::string_view complete) {
    if (complete.empty()) return;
    std::size_t malformed = 0;
    const auto entries = logger::parseLogFile(complete, &malformed);
    health_.addMalformed(malformed);
    for (const auto& entry : entries) {
        health_.onRecord(phoneName, entry);
        ++recordsConsumed_;
    }
}

void FleetMonitor::feedStream(const std::string& phoneName, PhoneStream& stream,
                              std::string_view released) {
    if (released.empty()) return;
    consumeLines(phoneName, stream.lines.feed(released));
    stampProvenance(phoneName, stream);
}

void FleetMonitor::stampProvenance(const std::string& phoneName,
                                   const PhoneStream& stream) {
    if (provenance_ == nullptr || simulator_ == nullptr) return;
    // Watermark: bytes released into the line buffer minus the partial
    // line it still holds — everything below it was consumed as complete
    // records.
    const std::uint64_t released = stream.tap.bytesReleased();
    const std::uint64_t pending = stream.lines.pendingBytes();
    provenance_->monitorConsumed(phoneName, released - pending,
                                 simulator_->now());
}

void FleetMonitor::onProvenanceAttached(obs::ProvenanceTracker* tracker) {
    provenance_ = tracker;
}

void FleetMonitor::onFrameAccepted(const transport::IngestResult& frame) {
    if (simulator_ == nullptr) return;  // live hook; replay feeds records directly
    const auto now = simulator_->now();
    Presence& presence = registerPhone(frame.phone, now);
    presence.heard = true;
    presence.lastIngestAt = now;
    ++framesSeen_;
    lastEventAt_ = std::max(lastEventAt_, now);

    PhoneStream& stream = streams_[frame.phone];
    const std::string released =
        stream.tap.push(frame.seq, frame.segCount, frame.payload, now);
    feedStream(frame.phone, stream, released);
}

void FleetMonitor::onCampaignEnd(sim::TimePoint at) {
    // The stream is closed: every held segment copy is final, so drain the
    // taps unconditionally (true gaps still hold their tails back).
    for (auto& [name, stream] : streams_) {
        feedStream(name, stream, stream.tap.flush());
    }
    health_.finalize();
    finalized_ = true;
    tick(at);
}

void FleetMonitor::replay(const std::vector<analysis::PhoneLog>& logs) {
    struct Item {
        sim::TimePoint time;
        const std::string* phone;
        const logger::LogFileEntry* entry;
    };
    std::vector<std::vector<logger::LogFileEntry>> parsed;
    parsed.reserve(logs.size());
    std::size_t total = 0;
    for (const auto& log : logs) {
        std::size_t malformed = 0;
        parsed.push_back(logger::parseLogFile(log.logFileContent, &malformed));
        health_.addMalformed(malformed);
        total += parsed.back().size();
    }
    std::vector<Item> items;
    items.reserve(total);
    for (std::size_t i = 0; i < logs.size(); ++i) {
        for (const auto& entry : parsed[i]) {
            items.push_back(Item{entryTime(entry), &logs[i].phoneName, &entry});
        }
    }
    // Global ingest order: by record time, per-phone log order preserved
    // on ties (stable sort over the per-phone sequential layout).
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.time < b.time; });

    if (!items.empty()) {
        sim::TimePoint nextTick = items.front().time + config_.tick;
        for (const Item& item : items) {
            while (item.time > nextTick) {
                tick(nextTick);
                nextTick += config_.tick;
            }
            Presence& presence = registerPhone(*item.phone, item.time);
            presence.heard = true;
            presence.lastIngestAt = std::max(presence.lastIngestAt, item.time);
            health_.onRecord(*item.phone, *item.entry);
            ++recordsConsumed_;
            lastEventAt_ = std::max(lastEventAt_, item.time);
        }
    }
    health_.finalize();
    finalized_ = true;
    tick(lastEventAt_);
}

void FleetMonitor::tick(sim::TimePoint now) {
    // Live mode: settle-timeout releases first, so this tick sees them.
    if (!finalized_ && simulator_ != nullptr) {
        for (auto& [name, stream] : streams_) {
            feedStream(name, stream, stream.tap.poll(now));
        }
    }
    health_.trimTo(now);
    const WindowStats window = health_.windowStats(now);

    std::vector<PhoneSilence> silences;
    silences.reserve(presence_.size());
    std::vector<std::string> silentPhones;
    std::size_t suspect = 0;
    std::size_t outage = 0;
    std::size_t heard = 0;
    for (auto& [name, presence] : presence_) {
        PhoneSilence& silence = silences.emplace_back();
        silence.name = name;
        if (presence.heard) ++heard;
        if (now < presence.enrollAt) {
            presence.liveness = Liveness::NotEnrolled;
            continue;
        }
        const auto last = std::max(presence.lastIngestAt, presence.enrollAt);
        silence.hours = (now - last).asHoursF();
        silence.inOutage = presence.probe && presence.probe(now);
        if (*silence.hours > config_.silenceHours) {
            presence.liveness =
                silence.inOutage ? Liveness::SilentOutage : Liveness::SilentSuspect;
            if (silence.inOutage) {
                ++outage;
            } else {
                ++suspect;
            }
            silentPhones.push_back(name);
        } else {
            presence.liveness = Liveness::Healthy;
        }
    }

    alerts_.evaluate(now, window, silences);

    const auto coalescence = health_.coalescence();
    Snapshot snapshot;
    snapshot.at = now;
    snapshot.records = recordsConsumed_;
    snapshot.frames = framesSeen_;
    snapshot.malformed = health_.malformedLines();
    snapshot.phonesRegistered = presence_.size();
    snapshot.phonesHeard = heard;
    snapshot.silentSuspect = suspect;
    snapshot.silentOutage = outage;
    snapshot.window = window;
    snapshot.totals = health_.totals();
    snapshot.resolvedPanics = coalescence.panicsResolved;
    snapshot.relatedPanics = coalescence.relatedCount;
    snapshot.pendingPanics = coalescence.pendingPanics;
    snapshot.multiBursts = health_.multiBursts();
    snapshot.alertsFired = alerts_.fired();
    snapshot.alertsCleared = alerts_.cleared();
    snapshot.alertsActive = alerts_.activeCount();
    snapshot.silentPhones = std::move(silentPhones);
    snapshot.activeAlerts = alerts_.activeLabels();
    snapshots_.push_back(std::move(snapshot));
}

std::string FleetMonitor::snapshotsJsonl() const {
    std::string out;
    for (const Snapshot& s : snapshots_) {
        appendf(out, "{\"t_hours\":");
        out += obs::jsonNum((s.at - sim::TimePoint::origin()).asHoursF(), 10);
        appendf(out, ",\"records\":%llu,\"frames\":%llu,\"malformed\":%llu",
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.malformed));
        appendf(out, ",\"phones\":%zu,\"heard\":%zu,\"silent_suspect\":%zu,"
                     "\"silent_outage\":%zu",
                s.phonesRegistered, s.phonesHeard, s.silentSuspect, s.silentOutage);
        out += ",\"window\":{";
        appendf(out, "\"freezes\":%llu,\"self_shutdowns\":%llu,\"reboots\":%llu,"
                     "\"panics\":%llu,\"multi_bursts\":%llu,\"observed_hours\":",
                static_cast<unsigned long long>(s.window.freezes),
                static_cast<unsigned long long>(s.window.selfShutdowns),
                static_cast<unsigned long long>(s.window.reboots),
                static_cast<unsigned long long>(s.window.panics),
                static_cast<unsigned long long>(s.window.multiBursts));
        out += obs::jsonNum(s.window.observedHours, 10);
        appendf(out, ",\"dumps\":%llu,\"crash_families\":%llu,"
                     "\"top_family_dumps\":%llu,\"top_family\":",
                static_cast<unsigned long long>(s.window.dumps),
                static_cast<unsigned long long>(s.window.crashFamilies),
                static_cast<unsigned long long>(s.window.topFamilyDumps));
        out += obs::jsonString(s.window.topFamilyId);
        out += ",\"mtbf_any_hours\":";
        out += obs::jsonNum(s.window.mtbfAnyHours, 10);
        out += ",\"failure_rate_per_khour\":";
        out += obs::jsonNum(s.window.failureRatePerKiloHour, 10);
        out += ",\"laplace_trend\":";
        out += obs::jsonNum(s.window.laplaceTrend, 10);
        out += ",\"forecast_next_window\":";
        out += obs::jsonNum(s.window.forecastNextWindowFailures, 10);
        out += "},\"totals\":{";
        appendf(out, "\"boots\":%llu,\"panics\":%llu,\"freezes\":%llu,"
                     "\"self_shutdowns\":%llu,\"user_shutdowns\":%llu,"
                     "\"low_battery\":%llu,\"manual_off\":%llu,\"user_reports\":%llu}",
                static_cast<unsigned long long>(s.totals.boots),
                static_cast<unsigned long long>(s.totals.panics),
                static_cast<unsigned long long>(s.totals.freezes),
                static_cast<unsigned long long>(s.totals.selfShutdowns),
                static_cast<unsigned long long>(s.totals.userShutdowns),
                static_cast<unsigned long long>(s.totals.lowBatteryShutdowns),
                static_cast<unsigned long long>(s.totals.manualOffBoots),
                static_cast<unsigned long long>(s.totals.userReports));
        appendf(out, ",\"coalescence\":{\"resolved\":%zu,\"related\":%zu,"
                     "\"pending\":%zu},\"multi_bursts\":%llu",
                s.resolvedPanics, s.relatedPanics, s.pendingPanics,
                static_cast<unsigned long long>(s.multiBursts));
        appendf(out, ",\"alerts\":{\"fired\":%llu,\"cleared\":%llu,\"active\":%zu,"
                     "\"active_labels\":",
                static_cast<unsigned long long>(s.alertsFired),
                static_cast<unsigned long long>(s.alertsCleared), s.alertsActive);
        appendStringArray(out, s.activeAlerts);
        out += "},\"silent\":";
        appendStringArray(out, s.silentPhones);
        out += "}\n";
    }
    return out;
}

std::string FleetMonitor::renderAlertLog() const {
    std::string out;
    for (const AlertEvent& event : alerts_.log()) {
        out += event.time.str();
        out += ' ';
        out += toString(event.severity);
        out += ' ';
        out += event.rule;
        if (!event.phone.empty()) {
            out += '/';
            out += event.phone;
        }
        out += event.firing ? " FIRING value=" : " CLEARED value=";
        out += obs::jsonNum(event.value, 10);
        out += '\n';
    }
    return out;
}

std::string FleetMonitor::renderDashboard() const {
    std::string out = "== Fleet health monitor ==\n";
    if (snapshots_.empty()) {
        out += "  no snapshots (nothing ingested)\n";
        return out;
    }
    const Snapshot& last = snapshots_.back();
    const auto coalescence = health_.coalescence();
    const auto& totals = health_.totals();

    appendf(out, "  simulated             %.1f d, %zu snapshots (tick %.1f h, window %.0f h)\n",
            (last.at - sim::TimePoint::origin()).asHoursF() / 24.0,
            snapshots_.size(), config_.tick.asHoursF(), kRateWindow.asHoursF());
    appendf(out, "  ingest                %llu frames -> %llu records (%llu malformed), %zu/%zu phones heard\n",
            static_cast<unsigned long long>(framesSeen_),
            static_cast<unsigned long long>(recordsConsumed_),
            static_cast<unsigned long long>(health_.malformedLines()),
            last.phonesHeard, last.phonesRegistered);
    appendf(out, "  totals                freezes %llu, self-shutdowns %llu, user shutdowns %llu, reboots %llu, panics %llu\n",
            static_cast<unsigned long long>(totals.freezes),
            static_cast<unsigned long long>(totals.selfShutdowns),
            static_cast<unsigned long long>(totals.userShutdowns),
            static_cast<unsigned long long>(totals.boots),
            static_cast<unsigned long long>(totals.panics));
    appendf(out, "  online coalescence    %zu/%zu panics HL-related (%.1f%%), %zu pending; HL with panic %zu/%zu\n",
            coalescence.relatedCount, coalescence.panicsResolved,
            100.0 * coalescence.relatedFraction(), coalescence.pendingPanics,
            coalescence.hlWithPanic, coalescence.hlTotal);
    const auto& bursts = health_.burstLengths();
    appendf(out, "  bursts                %llu bursts, %llu multi-panic (%.1f%%)\n",
            static_cast<unsigned long long>(bursts.total()),
            static_cast<unsigned long long>(health_.multiBursts()),
            bursts.total() == 0
                ? 0.0
                : 100.0 * static_cast<double>(health_.multiBursts()) /
                      static_cast<double>(bursts.total()));
    appendf(out, "  window @ end          freezes %llu, self %llu, panics %llu, MTBF(any) %.1f h, rate %.2f/kh\n",
            static_cast<unsigned long long>(last.window.freezes),
            static_cast<unsigned long long>(last.window.selfShutdowns),
            static_cast<unsigned long long>(last.window.panics),
            last.window.mtbfAnyHours, last.window.failureRatePerKiloHour);
    appendf(out, "  reliability trend     Laplace %+.2f at end; forecast %.0f failures over next %.0f h\n",
            last.window.laplaceTrend, last.window.forecastNextWindowFailures,
            kRateWindow.asHoursF());
    appendf(out, "  crash families        %llu dumps total; window: %llu dumps in %llu families, top %s (%llu)\n",
            static_cast<unsigned long long>(totals.dumps),
            static_cast<unsigned long long>(last.window.dumps),
            static_cast<unsigned long long>(last.window.crashFamilies),
            last.window.topFamilyId.empty() ? "-" : last.window.topFamilyId.c_str(),
            static_cast<unsigned long long>(last.window.topFamilyDumps));
    appendf(out, "  liveness              %zu silent suspect, %zu silent in outage\n",
            last.silentSuspect, last.silentOutage);
    for (const auto& phone : last.silentPhones) {
        const auto it = presence_.find(phone);
        if (it == presence_.end()) continue;
        const auto lastHeard =
            std::max(it->second.lastIngestAt, it->second.enrollAt);
        appendf(out, "    %-14s %-14s last heard %.1f h before end\n", phone.c_str(),
                std::string{toString(it->second.liveness)}.c_str(),
                (last.at - lastHeard).asHoursF());
    }
    appendf(out, "  alerts                %llu fired, %llu cleared, %zu active\n",
            static_cast<unsigned long long>(alerts_.fired()),
            static_cast<unsigned long long>(alerts_.cleared()),
            alerts_.activeCount());
    // Tail of the alert log; the full log goes to --alerts.
    const auto& log = alerts_.log();
    const std::size_t first = log.size() > 8 ? log.size() - 8 : 0;
    if (first > 0) appendf(out, "    ... %zu earlier events\n", first);
    for (std::size_t i = first; i < log.size(); ++i) {
        const AlertEvent& event = log[i];
        std::string label = event.rule;
        if (!event.phone.empty()) {
            label += '/';
            label += event.phone;
        }
        appendf(out, "    %s %-8s %-32s %s\n", event.time.str().c_str(),
                std::string{toString(event.severity)}.c_str(), label.c_str(),
                event.firing ? "FIRING" : "CLEARED");
    }

    // Windowed failure counts over the campaign, max-pooled per column.
    std::vector<double> failures;
    failures.reserve(snapshots_.size());
    for (const Snapshot& s : snapshots_) {
        failures.push_back(
            static_cast<double>(s.window.freezes + s.window.selfShutdowns));
    }
    const double peak = failures.empty()
                            ? 0.0
                            : *std::max_element(failures.begin(), failures.end());
    appendf(out, "  windowed failures     peak %.0f per %.0f h window\n", peak,
            kRateWindow.asHoursF());
    out += "    [";
    out += sparkline(failures, 64);
    out += "]\n";
    return out;
}

void FleetMonitor::publishMetrics(obs::MetricsRegistry& registry) const {
    registry.counter("monitor", "frames_consumed", "Frames seen by the ingest tap")
        .inc(framesSeen_);
    registry.counter("monitor", "records_consumed", "Records parsed from the stream")
        .inc(recordsConsumed_);
    registry.counter("monitor", "malformed_lines", "Malformed lines in the stream")
        .inc(health_.malformedLines());
    registry.counter("monitor", "alerts_fired", "Alert FIRING transitions")
        .inc(alerts_.fired());
    registry.counter("monitor", "alerts_cleared", "Alert CLEARED transitions")
        .inc(alerts_.cleared());
    registry.gauge("monitor", "alerts_active", "Alerts firing at campaign end")
        .set(static_cast<double>(alerts_.activeCount()));
    const auto coalescence = health_.coalescence();
    registry.counter("monitor", "panics_resolved", "Panics with a final HL relation")
        .inc(coalescence.panicsResolved);
    registry
        .counter("monitor", "related_panics",
                 "Panics coalesced with a freeze or self-shutdown")
        .inc(coalescence.relatedCount);
    registry.gauge("monitor", "related_fraction", "Related / resolved panics")
        .set(coalescence.relatedFraction());
    registry.counter("monitor", "bursts", "Finalized panic bursts")
        .inc(health_.burstLengths().total());
    registry.counter("monitor", "multi_bursts", "Bursts of length >= 2")
        .inc(health_.multiBursts());
    registry.counter("monitor", "crash_dumps", "Structured crash dumps ingested")
        .inc(health_.totals().dumps);
    registry
        .gauge("monitor", "crash_families_window",
               "Crash families active in the final window")
        .set(snapshots_.empty()
                 ? 0.0
                 : static_cast<double>(snapshots_.back().window.crashFamilies));
    registry
        .gauge("monitor", "top_family_dumps_window",
               "Windowed dump count of the busiest crash family")
        .set(snapshots_.empty()
                 ? 0.0
                 : static_cast<double>(snapshots_.back().window.topFamilyDumps));
    registry
        .gauge("monitor", "window_laplace_trend",
               "Windowed Laplace trend factor at campaign end")
        .set(snapshots_.empty() ? 0.0 : snapshots_.back().window.laplaceTrend);
    registry
        .gauge("monitor", "forecast_failures_window",
               "Forecast failures over the next window-length horizon")
        .set(snapshots_.empty()
                 ? 0.0
                 : snapshots_.back().window.forecastNextWindowFailures);
    registry.gauge("monitor", "snapshots", "Snapshots taken")
        .set(static_cast<double>(snapshots_.size()));
    registry
        .gauge("monitor", "phones_heard",
               "Phones the ingest stream delivered records for")
        .set(snapshots_.empty()
                 ? 0.0
                 : static_cast<double>(snapshots_.back().phonesHeard));
}

std::uint64_t FleetMonitor::approxMemoryBytes() const {
    constexpr std::size_t mapNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    for (const auto& [phone, stream] : streams_) {
        total += phone.size() + sizeof(std::string) + mapNode;
        total += stream.tap.approxMemoryBytes() + stream.lines.approxMemoryBytes();
    }
    for (const auto& entry : presence_) {
        total += entry.first.size() + sizeof(std::string) + sizeof(Presence) + mapNode;
    }
    total += snapshots_.capacity() * sizeof(Snapshot);
    for (const Snapshot& snapshot : snapshots_) {
        total += snapshot.silentPhones.capacity() * sizeof(std::string);
        total += snapshot.activeAlerts.capacity() * sizeof(std::string);
        for (const std::string& name : snapshot.silentPhones) total += name.size();
        for (const std::string& name : snapshot.activeAlerts) total += name.size();
    }
    total += health_.approxMemoryBytes();
    return total;
}

}  // namespace symfail::monitor
