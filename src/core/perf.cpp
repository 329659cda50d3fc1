#include "core/perf.hpp"

#include <chrono>
#include <cstdio>

#include "analysis/dataset.hpp"
#include "fleet/fleet.hpp"
#include "obs/file.hpp"
#include "obs/trace.hpp"  // jsonNum

namespace symfail::core {
namespace {

double steadySeconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

using obs::jsonNum;

std::string u64(std::uint64_t value) {
    return std::to_string(static_cast<unsigned long long>(value));
}

double mb(std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

PerfReport runPerfScaling(const PerfOptions& options) {
    PerfReport report;
    report.seed = options.seed;
    report.sampleHours = options.sampleHours;
    report.samplingStride = options.samplingStride;
    for (const int phones : options.fleetSizes) {
        fleet::FleetConfig config;
        config.phoneCount = phones;
        fleet::setCampaignDays(config, options.days);
        config.seed = options.seed;
        config.obs.accountingInterval = sim::Duration::hours(options.sampleHours);

        // The timed run carries the accountant alone, so its phones run on
        // every hardware thread, as an unobserved campaign's do.
        obs::ResourceAccountant accountant;
        config.obs.accountant = &accountant;
        const double wallStart = steadySeconds();
        const fleet::FleetResult result = fleet::runCampaign(config);
        accountant.record("analysis",
                          analysis::LogDataset::build(result.logs).approxMemoryBytes());
        const double wallSeconds = steadySeconds() - wallStart;

        PerfCell cell;
        cell.phones = phones;
        cell.days = options.days;
        cell.accounts = accountant.accounts();
        cell.totalBytes = accountant.totalBytes();
        cell.peakTotalBytes = accountant.peakTotalBytes();
        cell.bytesPerPhone = static_cast<double>(cell.peakTotalBytes) /
                             static_cast<double>(phones);
        cell.accountingSamples = accountant.samplesTaken();
        cell.queueDepthPeak = result.queueDepthPeak;
        cell.simulatorEvents = result.simulatorEvents;
        cell.phoneHours = fleet::expectedObservedHours(config);
        cell.wallSeconds = wallSeconds;
        cell.phoneHoursPerSec =
            wallSeconds > 0.0 ? cell.phoneHours / wallSeconds : 0.0;
        cell.peakRssBytes = obs::readPeakRssBytes();

        // The profiled run repeats the campaign for the hotspot and phase
        // tables only: a profiler runs the phones on one thread.
        obs::ResourceAccountant profiledAccountant;
        obs::CampaignProfiler profiler;
        profiler.setSamplingStride(options.samplingStride);
        config.obs.accountant = &profiledAccountant;
        config.obs.profiler = &profiler;
        fleet::FleetResult profiled;
        {
            obs::ScopedPhase bracket{&profiler, "campaign"};
            profiled = fleet::runCampaign(config);
        }
        {
            obs::ScopedPhase bracket{&profiler, "analysis"};
            (void)analysis::LogDataset::build(profiled.logs);
        }
        cell.hotspots = profiler.byCategory();
        if (cell.hotspots.size() > 8) cell.hotspots.resize(8);
        cell.phases = profiler.byPhase();
        report.cells.push_back(std::move(cell));
    }
    return report;
}

std::string renderPerfText(const PerfReport& report) {
    std::string out = "perf scaling report (seed " + u64(report.seed) +
                      ", sweep every " + std::to_string(report.sampleHours) +
                      " h, profiler stride " + u64(report.samplingStride) + ")\n";
    char buf[256];
    for (const PerfCell& cell : report.cells) {
        std::snprintf(buf, sizeof buf, "\n== %d phones x %lld days ==\n",
                      cell.phones, cell.days);
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  throughput   %10.0f phone-hours/sec "
                      "(%.1f phone-hours in %.2f s)\n",
                      cell.phoneHoursPerSec, cell.phoneHours, cell.wallSeconds);
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  footprint    %10.2f MB peak accounted "
                      "(%.0f bytes/phone), %.2f MB peak RSS\n",
                      mb(cell.peakTotalBytes), cell.bytesPerPhone,
                      mb(cell.peakRssBytes));
        out += buf;
        std::snprintf(buf, sizeof buf,
                      "  simulator    %llu events, queue depth peak %zu, "
                      "%llu accounting samples\n",
                      static_cast<unsigned long long>(cell.simulatorEvents),
                      cell.queueDepthPeak,
                      static_cast<unsigned long long>(cell.accountingSamples));
        out += buf;
        out += "  bytes by subsystem (current / peak):\n";
        for (const auto& account : cell.accounts) {
            std::snprintf(buf, sizeof buf, "    %-10s %12llu %12llu\n",
                          account.subsystem.c_str(),
                          static_cast<unsigned long long>(account.currentBytes),
                          static_cast<unsigned long long>(account.peakBytes));
            out += buf;
        }
        if (!cell.phases.empty()) {
            out += "  host time by phase (exact):\n";
            for (const auto& phase : cell.phases) {
                std::snprintf(buf, sizeof buf, "    %-10s %9.3f s\n",
                              phase.phase.c_str(), phase.hostSeconds);
                out += buf;
            }
        }
        if (!cell.hotspots.empty()) {
            out += "  hotspots by event category (estimated):\n";
            for (const auto& hot : cell.hotspots) {
                std::snprintf(buf, sizeof buf, "    %-22s %9.3f s  %10llu events\n",
                              hot.category.c_str(), hot.hostSeconds,
                              static_cast<unsigned long long>(hot.events));
                out += buf;
            }
        }
    }
    return out;
}

std::string perfToJson(const PerfReport& report) {
    std::string json = "{\n\"seed\": " + u64(report.seed) +
                       ",\n\"sample_hours\": " + std::to_string(report.sampleHours) +
                       ",\n\"sampling_stride\": " + u64(report.samplingStride) +
                       ",\n\"cells\": [";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const PerfCell& cell = report.cells[i];
        if (i != 0) json += ",";
        json += "\n{\n\"phones\": " + std::to_string(cell.phones) +
                ",\n\"days\": " + std::to_string(cell.days) +
                ",\n\"accounting\": {\n";
        json += "\"total_bytes\": " + u64(cell.totalBytes) +
                ",\n\"peak_total_bytes\": " + u64(cell.peakTotalBytes) +
                ",\n\"bytes_per_phone\": " + jsonNum(cell.bytesPerPhone) +
                ",\n\"samples\": " + u64(cell.accountingSamples) +
                ",\n\"queue_depth_peak\": " + std::to_string(cell.queueDepthPeak) +
                ",\n\"simulator_events\": " + u64(cell.simulatorEvents) +
                ",\n\"phone_hours\": " + jsonNum(cell.phoneHours) +
                ",\n\"subsystems\": {";
        for (std::size_t j = 0; j < cell.accounts.size(); ++j) {
            const auto& account = cell.accounts[j];
            if (j != 0) json += ", ";
            json += "\"" + account.subsystem + "\": {\"bytes\": " +
                    u64(account.currentBytes) + ", \"peak_bytes\": " +
                    u64(account.peakBytes) + ", \"samples\": " +
                    u64(account.samples) + "}";
        }
        json += "}\n},\n\"host\": {\n";
        json += "\"wall_seconds\": " + jsonNum(cell.wallSeconds) +
                ",\n\"phone_hours_per_sec\": " + jsonNum(cell.phoneHoursPerSec) +
                ",\n\"peak_rss_bytes\": " + u64(cell.peakRssBytes) +
                ",\n\"phases\": {";
        for (std::size_t j = 0; j < cell.phases.size(); ++j) {
            if (j != 0) json += ", ";
            json += "\"" + cell.phases[j].phase +
                    "\": " + jsonNum(cell.phases[j].hostSeconds);
        }
        json += "},\n\"hotspots\": [";
        for (std::size_t j = 0; j < cell.hotspots.size(); ++j) {
            const auto& hot = cell.hotspots[j];
            if (j != 0) json += ", ";
            json += "{\"category\": \"" + hot.category +
                    "\", \"events\": " + u64(hot.events) +
                    ", \"host_seconds\": " + jsonNum(hot.hostSeconds) + "}";
        }
        json += "]\n}\n}";
    }
    json += "\n]\n}\n";
    return json;
}

std::vector<std::string> exportPerfCsv(const PerfReport& report,
                                       const std::string& directory) {
    std::string csv =
        "phones,days,subsystem,bytes,peak_bytes,bytes_per_phone,"
        "phone_hours_per_sec,wall_seconds,peak_rss_bytes,queue_depth_peak\n";
    for (const PerfCell& cell : report.cells) {
        const std::string prefix =
            std::to_string(cell.phones) + "," + std::to_string(cell.days) + ",";
        for (const auto& account : cell.accounts) {
            csv += prefix + account.subsystem + "," + u64(account.currentBytes) +
                   "," + u64(account.peakBytes) + ",,,,,\n";
        }
        csv += prefix + "total," + u64(cell.totalBytes) + "," +
               u64(cell.peakTotalBytes) + "," + jsonNum(cell.bytesPerPhone) + "," +
               jsonNum(cell.phoneHoursPerSec) + "," + jsonNum(cell.wallSeconds) +
               "," + u64(cell.peakRssBytes) + "," +
               std::to_string(cell.queueDepthPeak) + "\n";
    }
    return obs::writeDirectory(directory, {{"perf_scaling.csv", std::move(csv)}});
}

void publishPerfMetrics(const PerfReport& report, obs::MetricsRegistry& registry) {
    for (const PerfCell& cell : report.cells) {
        const std::string label = std::to_string(cell.phones);
        registry
            .gauge("perf", "bytes_per_phone", "phones", label,
                   "Peak accounted bytes per phone at this fleet size")
            .set(cell.bytesPerPhone);
        registry
            .gauge("perf", "peak_total_bytes", "phones", label,
                   "Peak accounted bytes across subsystems")
            .set(static_cast<double>(cell.peakTotalBytes));
        registry
            .gauge("perf", "phone_hours_per_sec", "phones", label,
                   "Simulated phone-hours per wall-clock second")
            .set(cell.phoneHoursPerSec);
        registry
            .gauge("perf", "wall_seconds", "phones", label,
                   "Wall-clock seconds for campaign plus analysis")
            .set(cell.wallSeconds);
        registry
            .gauge("perf", "peak_rss_bytes", "phones", label,
                   "Host peak resident-set size after this cell")
            .set(static_cast<double>(cell.peakRssBytes));
        registry
            .gauge("perf", "queue_depth_peak", "phones", label,
                   "Largest pending-event count at any dispatch")
            .set(static_cast<double>(cell.queueDepthPeak));
        for (const auto& account : cell.accounts) {
            registry
                .gauge("perf", "subsystem_bytes_" + account.subsystem, "phones",
                       label, "Final-sweep bytes held by one subsystem")
                .set(static_cast<double>(account.currentBytes));
        }
    }
}

}  // namespace symfail::core
