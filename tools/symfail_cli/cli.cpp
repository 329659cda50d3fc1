#include "cli.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "analysis/version_stats.hpp"
#include "core/export.hpp"
#include "core/logio.hpp"
#include "core/perf.hpp"
#include "core/render.hpp"
#include "core/study.hpp"
#include "crash/fields.hpp"
#include "experiment/export.hpp"
#include "experiment/grid.hpp"
#include "experiment/runner.hpp"
#include "monitor/monitor.hpp"
#include "osfault/validity.hpp"
#include "obs/file.hpp"
#include "obs/metrics.hpp"
#include "srgm/analyze.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "transport/metrics.hpp"

namespace symfail::cli {
namespace {

void printUsage() {
    std::printf(
        "usage: symfail <command> [options]\n"
        "\n"
        "commands:\n"
        "  campaign [--phones N] [--days D] [--seed S] [--logs DIR] [--csv DIR]\n"
        "           [--json FILE] [--no-transport] [TRANSPORT]\n"
        "           [--flash-fault R] [--mem-pressure R] [--clock-skew PPM]\n"
        "           [--radio-fault R] [--trace FILE] [--metrics FILE]\n"
        "           run a fleet campaign (defaults: the paper's 25 phones,\n"
        "           425 days) and print every regenerated artifact;\n"
        "           --trace writes a Perfetto-loadable trace, --metrics a\n"
        "           metrics snapshot (.json/.csv by extension, else\n"
        "           Prometheus text)\n"
        "  transport [--phones N] [--days D] [--seed S] [TRANSPORT]\n"
        "           run a campaign and analyze what the lossy collection\n"
        "           path delivered (the analysis runs on the *collected*\n"
        "           logs, partial if segments were permanently lost)\n"
        "  analyze <logdir> [--csv DIR]\n"
        "           run the analysis pipeline over *.log files on disk\n"
        "  crash   <logdir> [--json FILE] [--csv DIR] [--metrics FILE]\n"
        "           cluster the structured crash dumps found in *.log files\n"
        "           into crash families (signature hash with similarity\n"
        "           fallback) and print the family table; the output is a\n"
        "           pure function of the logs, byte-identical across runs\n"
        "  forum    [--reports N] [--seed S]\n"
        "           run the web-forum study (Table 1)\n"
        "  obs      [--phones N] [--days D] [--seed S] [TRANSPORT]\n"
        "           [--trace FILE] [--metrics FILE]\n"
        "           run an instrumented campaign (default 60 days) and print\n"
        "           the host-time profile and the metric snapshot\n"
        "  monitor  [--phones N] [--days D] [--seed S] [TRANSPORT] [--replay]\n"
        "           [--tick-hours H] [--silence-hours H] [--snapshots FILE.jsonl]\n"
        "           [--alerts FILE] [--metrics FILE]\n"
        "           run a campaign (default 120 days) with the online\n"
        "           fleet-health monitor attached to the ingest path and\n"
        "           print the live dashboard; --replay streams the collected\n"
        "           dataset through the monitor instead and checks the\n"
        "           online burst/coalescence counts against the batch\n"
        "           analysis (exit 1 on mismatch)\n"
        "  trace    [--phones N] [--days D] [--seed S] [TRANSPORT]\n"
        "           [--record PHONE#ID] [--lost] [--flow-all] [--trace FILE]\n"
        "           [--json FILE] [--metrics FILE]\n"
        "           run a campaign (default 120 days) with end-to-end failure\n"
        "           provenance and print the pipeline accounting table\n"
        "           (created = delivered + torn + lost-wire + lost-outage +\n"
        "           pending); --record explains why one record did or did\n"
        "           not arrive, --lost lists every undelivered record,\n"
        "           --trace adds Perfetto flow chains; exit 1 if the\n"
        "           conservation invariant fails\n"
        "  sweep    [--trials N] [--jobs J] [--grid FILE.json] [--seed S]\n"
        "           [--phones N] [--days D] [--bootstrap R] [--json FILE]\n"
        "           [--csv DIR] [--metrics FILE] [--flash-fault R]\n"
        "           [--mem-pressure R] [--clock-skew PPM] [--radio-fault R]\n"
        "           run N replicated trials of every grid cell, J trials at\n"
        "           a time; their phones share the hardware threads; report\n"
        "           mean / stddev / 95%% CI per metric; output is\n"
        "           byte-identical for any --jobs value at a fixed seed;\n"
        "           grid axes flash_fault_per_khour / mem_pressure_per_khour /\n"
        "           clock_skew_ppm / radio_fault_per_khour sweep the planes\n"
        "  osfault  [--phones N] [--days D] [--seed S] [TRANSPORT]\n"
        "           [--flash-fault R] [--mem-pressure R] [--clock-skew PPM]\n"
        "           [--radio-fault R] [--check] [--min-precision P]\n"
        "           [--min-recall R] [--min-capture C]\n"
        "           run a campaign (default 120 days) with the OS-interface\n"
        "           fault planes enabled (rates in faults per 1000 h; skew in\n"
        "           ppm) and score measurement validity: how precisely the\n"
        "           pipeline still recovers the ground-truth failure tables;\n"
        "           --check exits 1 when recovery drops below the bounds\n"
        "  srgm     [<logdir>] [--phones N] [--days D] [--seed S] [TRANSPORT]\n"
        "           [--holdout F] [--fleet-only] [--json FILE] [--csv DIR]\n"
        "           [--metrics FILE] [--check] [--max-count-err E]\n"
        "           [--min-preq-gain G] [--max-ks D]\n"
        "           fit the NHPP reliability-growth model family\n"
        "           (Goel-Okumoto, Musa-Okumoto, delayed S-shaped,\n"
        "           Weibull-type) to the campaign's failure times at fleet,\n"
        "           per-phone and per-version level, select by AIC/BIC with\n"
        "           a KS goodness-of-fit check, and benchmark a held-out\n"
        "           forecast (fit on the first --holdout fraction, score\n"
        "           the tail) against a constant-rate baseline; with a\n"
        "           <logdir> the fits run over *.log files on disk instead\n"
        "           of a fresh campaign, and the campaign flags are\n"
        "           rejected (default: the paper's 25 phones,\n"
        "           425 days); --check exits 1 when the holdout forecast\n"
        "           misses the bounds\n"
        "  perf     [--fleet-sizes N,M,...] [--phones N] [--days D] [--seed S]\n"
        "           [--sample-hours H] [--stride K] [--json FILE] [--csv DIR]\n"
        "           [--metrics FILE] [--check] [--max-bytes-per-phone B]\n"
        "           [--min-phone-hours-per-sec T]\n"
        "           run short scaling campaigns at a ladder of fleet sizes\n"
        "           (default 25 and 10000 phones, 2 days each) and report\n"
        "           phone-hours/sec, bytes/phone, peak RSS and per-subsystem\n"
        "           byte breakdowns; the JSON's accounting sections are\n"
        "           byte-identical across runs at a fixed seed; --check\n"
        "           exits 1 when a cell misses the bounds\n"
        "  tables   print the paper's reference taxonomies\n"
        "  help     show this message\n"
        "\n"
        "TRANSPORT: [--loss PCT] [--dup PCT] [--reorder PCT] [--no-retries]\n"
        "           [--outage-day D --outage-days N]: data-channel loss,\n"
        "           duplication and reordering in percent, retries off,\n"
        "           and an outage of N days (default 3) from day D\n"
        "\n"
        "A flag the command does not read, or a flag missing its value,\n"
        "exits 1 before anything runs.\n");
}

// The flags each subcommand reads, as space-separated names; a trailing
// '=' marks a flag that takes a value.
constexpr std::string_view kFleetFlags = "--phones= --days= --seed=";
constexpr std::string_view kTransportFlags =
    "--loss= --dup= --reorder= --no-retries --outage-day= --outage-days=";
constexpr std::string_view kOsfaultFlags =
    "--flash-fault= --mem-pressure= --clock-skew= --radio-fault=";

/// Checks a subcommand's arguments against the flags it reads, before
/// anything runs.  An unknown `--` token (a typo, or another subcommand's
/// flag), a value flag with no value, and a bare argument anywhere but
/// the first `positionals` slots all throw instead of being ignored.
void requireKnownFlags(const std::vector<std::string>& args,
                       std::initializer_list<std::string_view> flagLists,
                       std::size_t positionals = 0) {
    // nullopt: unknown; otherwise whether the flag takes a value.
    const auto lookup = [&](std::string_view name) -> std::optional<bool> {
        for (const std::string_view list : flagLists) {
            for (std::size_t pos = 0; pos < list.size();) {
                const std::size_t end = std::min(list.find(' ', pos), list.size());
                std::string_view flag = list.substr(pos, end - pos);
                const bool takesValue = flag.ends_with('=');
                if (takesValue) flag.remove_suffix(1);
                if (flag == name) return takesValue;
                pos = end + 1;
            }
        }
        return std::nullopt;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (!arg.starts_with("--")) {
            if (i >= positionals) {
                throw std::runtime_error("unexpected argument: " + arg);
            }
            continue;
        }
        const auto takesValue = lookup(arg);
        if (!takesValue) throw std::runtime_error("unknown flag: " + arg);
        if (!*takesValue) continue;
        if (i + 1 == args.size() || args[i + 1].starts_with("--")) {
            throw std::runtime_error(arg + " requires a value");
        }
        ++i;
    }
}

/// Pulls `--name value` from args; returns nullopt when absent.
std::optional<std::string> option(const std::vector<std::string>& args,
                                  std::string_view name) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == name) return args[i + 1];
    }
    return std::nullopt;
}

/// `--name value` as a number within `bounds`, or `fallback` when the
/// flag is absent.  The token rule and the bounds check are the sweep
/// grid's, so a flag accepts exactly the numbers a grid file does:
/// trailing junk, hex, nan and inf fail, and the range is checked before
/// the caller narrows the value.
double numberOption(const std::vector<std::string>& args, std::string_view name,
                    double fallback, const experiment::Bounds& bounds) {
    const auto value = option(args, name);
    if (!value) return fallback;
    const auto parsed = experiment::parseNumber(*value);
    if (!parsed) {
        throw std::runtime_error("invalid value for " + std::string{name} + ": " +
                                 *value);
    }
    return bounds.check(name, *parsed);
}

/// `--seed`: an integer below 2^53, so the parsed double holds the
/// seed typed, not a neighbour it rounded to.
std::uint64_t seedOption(const std::vector<std::string>& args, std::uint64_t fallback) {
    return static_cast<std::uint64_t>(numberOption(args, "--seed",
                                                   static_cast<double>(fallback),
                                                   {0.0, 9'007'199'254'740'991.0, true}));
}

bool hasFlag(const std::vector<std::string>& args, const std::string& name) {
    for (const auto& arg : args) {
        if (arg == name) return true;
    }
    return false;
}

/// The study a campaign-shaped subcommand runs for `cell`: seeded by
/// --seed, with retries off under --no-retries.
core::StudyConfig studyConfig(const std::vector<std::string>& args,
                              const experiment::Cell& cell) {
    core::StudyConfig config =
        cell.toStudyConfig(seedOption(args, fleet::FleetConfig{}.seed));
    if (hasFlag(args, "--no-retries")) {
        config.fleetConfig.transport.policy.retriesEnabled = false;
    }
    return config;
}

/// Fails fast when an output *file* path cannot be created: rejects
/// directories and missing parent directories, and probes writability by
/// opening the file (removed again if the probe created it).  Called
/// before a campaign runs, so a typo'd path costs seconds, not the run.
void requireWritableFile(const std::string& path, const std::string& flag) {
    namespace fs = std::filesystem;
    if (path.empty()) {
        throw std::runtime_error(flag + " requires a non-empty path");
    }
    const fs::path target{path};
    std::error_code ec;
    if (fs::is_directory(target, ec)) {
        throw std::runtime_error(flag + " path is a directory: " + path);
    }
    const fs::path parent =
        target.parent_path().empty() ? fs::path{"."} : target.parent_path();
    if (!fs::is_directory(parent, ec)) {
        throw std::runtime_error(flag + " parent directory does not exist: " +
                                 parent.string());
    }
    const bool existed = fs::exists(target, ec);
    const bool writable =
        static_cast<bool>(std::ofstream{target, std::ios::binary | std::ios::app});
    if (!existed) fs::remove(target, ec);
    if (!writable) {
        throw std::runtime_error("cannot write " + flag + " file: " + path);
    }
}

/// Fails fast when an output *directory* cannot be used: creates it (as
/// the exporters would) and rejects paths occupied by a non-directory.
void requireWritableDir(const std::string& path, const std::string& flag) {
    namespace fs = std::filesystem;
    if (path.empty()) {
        throw std::runtime_error(flag + " requires a non-empty path");
    }
    std::error_code ec;
    const fs::path target{path};
    if (fs::exists(target, ec) && !fs::is_directory(target, ec)) {
        throw std::runtime_error(flag + " path exists and is not a directory: " +
                                 path);
    }
    fs::create_directories(target, ec);
    if (ec || !fs::is_directory(target)) {
        throw std::runtime_error("cannot create " + flag + " directory: " + path);
    }
}

/// Validates every output path a subcommand may write, before it runs.
void validateOutputPaths(const std::vector<std::string>& args) {
    for (const char* flag :
         {"--trace", "--metrics", "--json", "--snapshots", "--alerts"}) {
        if (const auto path = option(args, flag)) requireWritableFile(*path, flag);
    }
    for (const char* flag : {"--csv", "--logs"}) {
        if (const auto path = option(args, flag)) requireWritableDir(*path, flag);
    }
}

/// Writes a metrics snapshot to `path`.  Format follows the extension:
/// .json and .csv as named, anything else Prometheus text exposition.
void writeMetricsFile(const obs::MetricsRegistry& registry, const std::string& path) {
    const auto endsWith = [&](std::string_view suffix) {
        return path.size() >= suffix.size() &&
               path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    std::string body;
    if (endsWith(".json")) {
        body = registry.renderJson();
    } else if (endsWith(".csv")) {
        body = registry.renderCsv();
    } else {
        body = registry.renderPrometheus();
    }
    obs::writeFile(path, body);
    std::printf("wrote %zu metrics to %s\n", registry.size(), path.c_str());
}

/// Writes one artifact and reports it as `wrote <what> to <path>`.
void writeTextFile(const std::string& path, const std::string& body,
                   const char* what) {
    obs::writeFile(path, body);
    std::printf("wrote %s to %s\n", what, path.c_str());
}

/// Observability attachments requested via --trace/--metrics; owns the
/// sinks for the duration of the run and writes the files afterwards.
struct ObsAttachment {
    std::unique_ptr<obs::ChromeTraceWriter> traceWriter;
    obs::MetricsRegistry registry;
    std::optional<std::string> tracePath;
    std::optional<std::string> metricsPath;

    /// Reads --trace/--metrics and wires the sinks into the fleet config.
    void attach(const std::vector<std::string>& args, fleet::FleetConfig& config) {
        tracePath = option(args, "--trace");
        metricsPath = option(args, "--metrics");
        if (tracePath) {
            traceWriter = std::make_unique<obs::ChromeTraceWriter>();
            config.obs.trace = traceWriter.get();
        }
        if (metricsPath) config.obs.metrics = &registry;
    }

    /// Writes the requested files.  Metrics format follows the extension:
    /// .json and .csv as named, anything else Prometheus text exposition.
    void finish() const {
        if (tracePath) {
            obs::writeFile(*tracePath, traceWriter->json());
            std::printf("wrote trace (%zu events) to %s\n",
                        traceWriter->eventCount(), tracePath->c_str());
        }
        if (metricsPath) writeMetricsFile(registry, *metricsPath);
    }
};

void printFieldResults(const core::FieldStudyResults& results, bool withEvaluation) {
    std::printf("%s\n", core::renderHeadline(results).c_str());
    std::printf("%s\n", core::renderFig2(results).c_str());
    std::printf("%s\n", core::renderTable2(results).c_str());
    std::printf("%s\n", core::renderFig3(results).c_str());
    std::printf("%s\n", core::renderFig5(results).c_str());
    std::printf("%s\n", core::renderTable3(results).c_str());
    std::printf("%s\n", core::renderFig6(results).c_str());
    std::printf("%s\n", core::renderTable4(results).c_str());
    std::printf("%s\n", core::renderCrashFamilies(results).c_str());
    std::printf("%s\n", core::renderPerPhone(results).c_str());
    if (withEvaluation) {
        std::printf("%s\n", core::renderEvaluation(results).c_str());
    }
}

int runCampaign(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kTransportFlags, kOsfaultFlags,
                             "--no-transport --logs= --csv= --json= --trace= "
                             "--metrics="});
    validateOutputPaths(args);
    const auto cell = campaignCell(args, {.phones = 25, .days = 425});
    core::StudyConfig config = studyConfig(args, cell);
    if (hasFlag(args, "--no-transport")) config.fleetConfig.transport.enabled = false;
    ObsAttachment obsFiles;
    obsFiles.attach(args, config.fleetConfig);

    std::printf("campaign: %d phones, %lld days, seed %llu\n\n", cell.phones, cell.days,
                static_cast<unsigned long long>(config.fleetConfig.seed));
    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();
    printFieldResults(results, /*withEvaluation=*/true);
    std::printf("%s\n", core::renderTransport(results).c_str());

    if (const auto dir = option(args, "--logs")) {
        const auto files = core::saveLogs(results.fleet.logs, *dir);
        std::printf("wrote %zu log files to %s\n", files.size(), dir->c_str());
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportFieldCsv(results, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, core::fieldResultsToJson(results), "JSON results");
    }
    obsFiles.finish();
    return 0;
}

int runObs(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kTransportFlags, "--trace= --metrics="});
    validateOutputPaths(args);
    const auto cell = campaignCell(args, {.phones = 25, .days = 60});
    core::StudyConfig config = studyConfig(args, cell);

    // Always profile and collect metrics; trace only when asked (traces of
    // long campaigns are large).
    obs::CampaignProfiler profiler;
    obs::ProvenanceTracker provenance;
    ObsAttachment obsFiles;
    obsFiles.attach(args, config.fleetConfig);
    // Collect into the attachment's registry whether or not --metrics was
    // given, so the printed snapshot and the written file are the same
    // document (a separate local registry here used to leave the
    // --metrics file empty).
    obs::MetricsRegistry& registry = obsFiles.registry;
    config.fleetConfig.obs.profiler = &profiler;
    config.fleetConfig.obs.metrics = &registry;
    config.fleetConfig.obs.provenance = &provenance;

    std::printf("instrumented campaign: %d phones, %lld days, seed %llu\n\n",
                cell.phones, cell.days,
                static_cast<unsigned long long>(config.fleetConfig.seed));
    const auto campaign = fleet::runCampaign(config.fleetConfig);
    (void)campaign;

    std::printf("%s\n", profiler.renderReport().c_str());
    std::printf("%s\n", provenance.renderReport().c_str());
    std::printf("== Metrics ==\n%s\n", registry.renderText().c_str());
    obsFiles.finish();
    return 0;
}

int runTrace(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kTransportFlags,
                             "--record= --lost --flow-all --trace= --json= --metrics="});
    validateOutputPaths(args);
    const auto cell = campaignCell(args, {.phones = 25, .days = 120});
    core::StudyConfig config = studyConfig(args, cell);

    // --record PHONE#ID parses before the campaign runs: PHONE names one
    // of the campaign's phones and ID is an unsigned decimal.
    std::optional<std::pair<std::string, std::uint64_t>> record;
    if (const auto value = option(args, "--record")) {
        const auto hash = value->find('#');
        const std::string phone = value->substr(0, std::min(hash, value->size()));
        const auto id = hash == std::string::npos
                            ? std::nullopt
                            : crash::parseField<std::uint64_t>(
                                  std::string_view{*value}.substr(hash + 1));
        if (!id) {
            throw std::runtime_error("--record expects PHONE#ID with a decimal ID, got " +
                                     *value);
        }
        bool known = false;
        for (int i = 0; i < cell.phones && !known; ++i) {
            known = phone == "phone-" + std::to_string(i);
        }
        if (!known) {
            throw std::runtime_error("--record names no phone of this campaign (phone-0 .. phone-" +
                                     std::to_string(cell.phones - 1) + "), got " + *value);
        }
        record.emplace(phone, *id);
    }

    obs::ProvenanceTracker provenance;
    if (hasFlag(args, "--flow-all")) provenance.setFlowAllRecords(true);
    config.fleetConfig.obs.provenance = &provenance;
    ObsAttachment obsFiles;
    obsFiles.attach(args, config.fleetConfig);
    // The monitor supplies the lineage's final stage: a record counts as
    // "alerted" once the streaming monitor has consumed its bytes.
    monitor::FleetMonitor fleetMonitor;
    config.fleetConfig.obs.monitor = &fleetMonitor;

    std::printf("provenance trace: %d phones, %lld days, seed %llu\n\n", cell.phones,
                cell.days, static_cast<unsigned long long>(config.fleetConfig.seed));
    const auto campaign = fleet::runCampaign(config.fleetConfig);
    (void)campaign;

    std::printf("%s\n", provenance.renderReport().c_str());

    if (record) {
        const auto& [phone, id] = *record;
        if (provenance.find(phone, id) == nullptr) {
            throw std::runtime_error("unknown record: " + *option(args, "--record"));
        }
        std::printf("%s\n", provenance.explain(phone, id).c_str());
    }

    if (hasFlag(args, "--lost")) {
        std::size_t listed = 0;
        std::printf("undelivered records:\n");
        for (const auto& phone : provenance.phoneNames()) {
            for (const obs::RecordLineage* rec : provenance.undelivered(phone)) {
                std::printf("  %-18s %-10s %-11s sent x%u\n",
                            obs::provenanceId(phone, rec->id).c_str(),
                            rec->tag.c_str(),
                            std::string{obs::toString(rec->outcome)}.c_str(),
                            rec->sendCount);
                ++listed;
            }
        }
        if (listed == 0) std::printf("  (none — every record was delivered)\n");
        std::printf("\n");
    }

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, provenance.renderJson(), "provenance JSON");
    }
    // --metrics is handled by the attachment: the campaign publishes the
    // provenance histograms into its registry alongside everything else.
    obsFiles.finish();
    // The whole point: records are conserved across the pipeline or the
    // run fails loudly.
    return provenance.summary().conserved() ? 0 : 1;
}

int runTransport(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kTransportFlags});
    const auto cell = campaignCell(args, {.phones = 25, .days = 120});
    const core::StudyConfig config = studyConfig(args, cell);

    const auto& channel = config.fleetConfig.transport.dataChannel;
    std::printf(
        "transport study: %d phones, %lld days, seed %llu\n"
        "channel: loss %.1f%%, dup %.1f%%, reorder %.1f%%, retries %s\n\n",
        cell.phones, cell.days, static_cast<unsigned long long>(config.fleetConfig.seed),
        100.0 * channel.lossProb, 100.0 * channel.dupProb, 100.0 * channel.reorderProb,
        config.fleetConfig.transport.policy.retriesEnabled ? "on" : "OFF");

    const auto campaign = fleet::runCampaign(config.fleetConfig);
    std::printf("%s\n", transport::renderTransportReport(campaign.transport).c_str());

    // The analysis deliberately runs on what the *server* holds — partial
    // per-phone logs when segments were permanently lost — not on the
    // ideal end-of-campaign copies.
    const core::FailureStudy study{config};
    const auto results = study.analyzeLogs(campaign.collectedLogs);
    std::printf("analysis over collected logs (%zu phones):\n\n",
                campaign.collectedLogs.size());
    std::printf("%s\n", core::renderHeadline(results).c_str());
    std::printf("%s\n", core::renderTable2(results).c_str());
    if (!results.dataset.coverageLoss().empty()) {
        std::printf("per-phone coverage loss:\n");
        for (const auto& [phone, coverage] : results.dataset.coverageLoss()) {
            std::printf("  %-12s %.1f%%\n", phone.c_str(), 100.0 * coverage);
        }
    } else {
        std::printf("no coverage loss: every phone's log was fully delivered\n");
    }
    return 0;
}

int runSweep(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kOsfaultFlags,
                             "--trials= --jobs= --bootstrap= --grid= --json= --csv= "
                             "--metrics="});
    validateOutputPaths(args);
    // The axis flags (--phones/--days and the plane rates) set the
    // *default cell*; a grid file's axes override them per cell.  --seed
    // is the sweep's master seed — every trial seed derives from it.
    const auto defaultCell = campaignCell(args, {});

    experiment::RunnerOptions options;
    options.masterSeed = seedOption(args, fleet::FleetConfig{}.seed);
    options.trials =
        static_cast<int>(numberOption(args, "--trials", 5, {1.0, 100'000.0, true}));
    options.jobs = static_cast<int>(numberOption(args, "--jobs", 1, {1.0, 1024.0, true}));
    // 0 disables the bootstrap interval.
    options.bootstrapResamples = static_cast<int>(
        numberOption(args, "--bootstrap", 1000, {0.0, 1'000'000.0, true}));
    obs::MetricsRegistry registry;
    const auto metricsPath = option(args, "--metrics");
    if (metricsPath) options.metrics = &registry;

    const auto gridPath = option(args, "--grid");
    const auto grid = gridPath ? experiment::Grid::load(*gridPath, defaultCell)
                               : experiment::Grid::single(defaultCell);

    std::printf("sweep: %zu cell(s) x %d trial(s), %d job(s), master seed %llu\n\n",
                grid.size(), options.trials, options.jobs,
                static_cast<unsigned long long>(options.masterSeed));
    const experiment::Runner runner{std::move(options)};
    const auto summary = runner.run(grid);
    std::printf("%s", experiment::renderSweepReport(summary).c_str());

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, experiment::sweepToJson(summary), "sweep JSON");
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = experiment::exportSweepCsv(summary, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (metricsPath) writeMetricsFile(registry, *metricsPath);
    // Failed trials are reported per cell without poisoning siblings, but
    // the exit status must still say something went wrong.
    return summary.failedTrials() == 0 ? 0 : 1;
}

int runOsfault(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kTransportFlags, kOsfaultFlags,
                             "--check --min-precision= --min-recall= --min-capture="});
    const auto cell = campaignCell(args, {.phones = 25, .days = 120});
    const core::StudyConfig config = studyConfig(args, cell);
    const auto& planes = config.fleetConfig.osfault;
    // The --check bounds parse before the campaign runs.  They default to
    // 0 (always pass); the CI smoke job pins calibrated values per plane.
    constexpr experiment::Bounds kRatio{0.0, 1.0};
    const double precision = numberOption(args, "--min-precision", 0.0, kRatio);
    const double recall = numberOption(args, "--min-recall", 0.0, kRatio);
    const double capture = numberOption(args, "--min-capture", 0.0, kRatio);

    std::printf(
        "osfault: %d phones, %lld days, seed %llu\n"
        "planes: flash %.3g/kh, mem-pressure %.3g/kh, clock-skew %.3g ppm, "
        "radio %.3g/kh\n\n",
        cell.phones, cell.days, static_cast<unsigned long long>(config.fleetConfig.seed),
        planes.flash.faultsPerKHour, planes.memory.episodesPerKHour,
        planes.clock.skewPpm, planes.radio.faultsPerKHour);

    const core::FailureStudy study{config};
    const auto results = study.runFieldStudy();
    std::printf("%s\n", core::renderHeadline(results).c_str());

    const osfault::ValidityReport report{results.evaluation,
                                         results.fleet.osfault};
    std::printf("%s", osfault::render(report).c_str());
    std::printf("osfault logger: record-anomalies=%llu daemon-deaths=%llu\n",
                static_cast<unsigned long long>(results.fleet.loggerRecordAnomalies),
                static_cast<unsigned long long>(results.fleet.loggerDaemonDeaths));

    if (hasFlag(args, "--check")) {
        osfault::ValidityBounds bounds;
        bounds.minFreezePrecision = precision;
        bounds.minSelfShutdownPrecision = precision;
        bounds.minFreezeRecall = recall;
        bounds.minSelfShutdownRecall = recall;
        bounds.minPanicCaptureRate = capture;
        const std::string violation = osfault::firstViolation(report, bounds);
        if (!violation.empty()) {
            std::printf("osfault check: FAIL (%s)\n", violation.c_str());
            return 1;
        }
        std::printf("osfault check: OK\n");
    }
    return 0;
}

std::uint64_t multiBurstCount(const sim::FreqCounter& bursts) {
    std::uint64_t multi = 0;
    for (const auto& [length, count] : bursts.entries()) {
        if (length >= 2) multi += count;
    }
    return multi;
}

int runMonitor(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags, kTransportFlags,
                             "--replay --tick-hours= --silence-hours= --snapshots= "
                             "--alerts= --metrics="});
    validateOutputPaths(args);
    const auto cell = campaignCell(args, {.phones = 25, .days = 120});
    core::StudyConfig config = studyConfig(args, cell);

    monitor::MonitorConfig monitorConfig;
    const auto tickHours = static_cast<long long>(
        numberOption(args, "--tick-hours", 6, {1.0, 10'000.0, true}));
    monitorConfig.tick = sim::Duration::hours(tickHours);
    monitorConfig.silenceHours = numberOption(args, "--silence-hours",
                                              monitorConfig.silenceHours,
                                              {1.0, 100'000.0, true});
    monitor::FleetMonitor fleetMonitor{monitorConfig};

    const bool replayMode = hasFlag(args, "--replay");
    if (!replayMode) config.fleetConfig.obs.monitor = &fleetMonitor;

    std::printf("monitor: %d phones, %lld days, seed %llu, tick %lld h, %s\n\n",
                cell.phones, cell.days,
                static_cast<unsigned long long>(config.fleetConfig.seed), tickHours,
                replayMode ? "replaying the collected dataset"
                           : "live on the ingest path");
    const auto campaign = fleet::runCampaign(config.fleetConfig);

    int exitCode = 0;
    if (replayMode) {
        fleetMonitor.replay(campaign.collectedLogs);

        // The online counts must equal the batch pipeline's on the same
        // dataset — this is the monitor's exactness contract.
        const core::FailureStudy study{config};
        const auto results = study.analyzeLogs(campaign.collectedLogs);
        const auto online = fleetMonitor.health().coalescence();
        const auto& batch = results.fig5Coalescence;
        const auto& onlineBursts = fleetMonitor.health().burstLengths();
        const auto& batchBursts = results.fig3BurstLengths;
        const bool coalescenceMatches =
            online.panicsResolved == batch.panics.size() &&
            online.relatedCount == batch.relatedCount &&
            online.hlWithPanic == batch.hlWithPanic &&
            online.hlTotal == batch.hlTotal;
        const bool burstsMatch =
            onlineBursts.entries() == batchBursts.entries() &&
            fleetMonitor.health().multiBursts() == multiBurstCount(batchBursts);
        std::printf("online vs batch on the collected dataset:\n");
        std::printf("  coalescence   online %zu/%zu related (HL %zu/%zu)  batch %zu/%zu (HL %zu/%zu)  %s\n",
                    online.relatedCount, online.panicsResolved, online.hlWithPanic,
                    online.hlTotal, batch.relatedCount, batch.panics.size(),
                    batch.hlWithPanic, batch.hlTotal,
                    coalescenceMatches ? "MATCH" : "MISMATCH");
        std::printf("  bursts        online %llu total / %llu multi  batch %llu total / %llu multi  %s\n\n",
                    static_cast<unsigned long long>(onlineBursts.total()),
                    static_cast<unsigned long long>(fleetMonitor.health().multiBursts()),
                    static_cast<unsigned long long>(batchBursts.total()),
                    static_cast<unsigned long long>(multiBurstCount(batchBursts)),
                    burstsMatch ? "MATCH" : "MISMATCH");
        if (!coalescenceMatches || !burstsMatch) exitCode = 1;
    }

    std::printf("%s\n", fleetMonitor.renderDashboard().c_str());

    if (const auto path = option(args, "--snapshots")) {
        writeTextFile(*path, fleetMonitor.snapshotsJsonl(), "monitor snapshots");
    }
    if (const auto path = option(args, "--alerts")) {
        writeTextFile(*path, fleetMonitor.renderAlertLog(), "alert log");
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        fleetMonitor.publishMetrics(registry);
        writeMetricsFile(registry, *path);
    }
    return exitCode;
}

int runAnalyze(const std::vector<std::string>& args) {
    if (args.empty() || args[0].rfind("--", 0) == 0) {
        std::fprintf(stderr, "analyze: missing <logdir>\n");
        return 2;
    }
    requireKnownFlags(args, {"--csv="}, 1);
    validateOutputPaths(args);
    const auto logs = core::loadLogs(args[0]);
    if (logs.empty()) {
        std::fprintf(stderr, "analyze: no *.log files in %s\n", args[0].c_str());
        return 1;
    }
    std::printf("loaded %zu phone logs from %s\n\n", logs.size(), args[0].c_str());
    const core::FailureStudy study{core::StudyConfig{}};
    const auto results = study.analyzeLogs(logs);
    printFieldResults(results, /*withEvaluation=*/false);

    const auto versions =
        analysis::versionBreakdown(results.dataset, results.classification);
    std::printf("OS versions: ");
    for (const auto& row : versions) {
        std::printf("%s(%zu phones) ", row.version.c_str(), row.phones);
    }
    std::printf("\n");

    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportFieldCsv(results, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    return 0;
}

int runCrash(const std::vector<std::string>& args) {
    if (args.empty() || args[0].rfind("--", 0) == 0) {
        std::fprintf(stderr, "crash: missing <logdir>\n");
        return 2;
    }
    requireKnownFlags(args, {"--json= --csv= --metrics="}, 1);
    validateOutputPaths(args);
    const auto logs = core::loadLogs(args[0]);
    if (logs.empty()) {
        std::fprintf(stderr, "crash: no *.log files in %s\n", args[0].c_str());
        return 1;
    }
    std::printf("loaded %zu phone logs from %s\n\n", logs.size(), args[0].c_str());
    const core::FailureStudy study{core::StudyConfig{}};
    const auto results = study.analyzeLogs(logs);
    const auto& report = results.crashFamilies;

    std::printf("%s\n", core::renderCrashFamilies(results).c_str());
    // One greppable line per family plus a summary, for scripted checks
    // (the CI smoke job asserts the family count and the panic mapping).
    for (const auto& row : report.rows) {
        std::printf("crash family: %s panic=%s dumps=%llu share=%.1f%% phones=%zu sigs=%zu top_app=%s\n",
                    row.familyId.c_str(), symbos::toString(row.panic).c_str(),
                    static_cast<unsigned long long>(row.dumps), row.sharePct,
                    row.phones, row.distinctSignatures, row.topApp.c_str());
    }
    std::printf("crash summary: dumps=%llu families=%zu",
                static_cast<unsigned long long>(report.totalDumps),
                report.rows.size());
    if (!report.rows.empty()) {
        std::printf(" top=%s top_panic=%s", report.rows.front().familyId.c_str(),
                    symbos::toString(report.rows.front().panic).c_str());
    }
    std::printf("\n");

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, core::crashFamiliesToJson(results), "crash-family JSON");
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportCrashCsv(results, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        registry.counter("crash", "dumps_total", "structured crash dumps clustered")
            .inc(report.totalDumps);
        registry.counter("crash", "families_total", "crash families discovered")
            .inc(report.rows.size());
        if (!report.rows.empty()) {
            registry
                .gauge("crash", "top_family_dumps",
                       "dumps in the largest crash family")
                .set(static_cast<double>(report.rows.front().dumps));
            registry
                .gauge("crash", "top_family_share_percent",
                       "share of all dumps held by the largest family")
                .set(report.rows.front().sharePct);
        }
        writeMetricsFile(registry, *path);
    }
    return 0;
}

int runSrgm(const std::vector<std::string>& args) {
    const bool fromLogs = !args.empty() && !args[0].starts_with("--");
    constexpr std::string_view kSrgmFlags =
        "--holdout= --fleet-only --json= --csv= --metrics= --check --max-count-err= "
        "--min-preq-gain= --max-ks=";
    if (fromLogs) {
        requireKnownFlags(args, {kSrgmFlags}, 1);
    } else {
        requireKnownFlags(args, {kSrgmFlags, kFleetFlags, kTransportFlags});
    }
    validateOutputPaths(args);

    srgm::SrgmOptions options;
    options.holdoutSplit = numberOption(args, "--holdout", 0.7, {0.05, 0.95});
    if (hasFlag(args, "--fleet-only")) {
        options.perPhone = false;
        options.perVersion = false;
    }
    // Check bounds parse up front so a malformed knob fails before the
    // campaign burns minutes.  They default to permissive values; the CI
    // smoke job pins calibrated ones for the paper-scale campaign.
    const double maxCountErr = numberOption(args, "--max-count-err", 1.0, {0.0, 100.0});
    const double minPreqGain = numberOption(args, "--min-preq-gain", 0.0, {-1e9, 1e9});
    const double maxKs = numberOption(args, "--max-ks", 1.0, {0.0, 1.0});

    std::optional<core::FieldStudyResults> results;
    if (fromLogs) {
        const auto logs = core::loadLogs(args[0]);
        if (logs.empty()) {
            std::fprintf(stderr, "srgm: no *.log files in %s\n", args[0].c_str());
            return 1;
        }
        std::printf("loaded %zu phone logs from %s\n\n", logs.size(),
                    args[0].c_str());
        const core::FailureStudy study{core::StudyConfig{}};
        results = study.analyzeLogs(logs);
    } else {
        const auto cell = campaignCell(args, {.phones = 25, .days = 425});
        const core::StudyConfig config = studyConfig(args, cell);
        std::printf("srgm: %d phones, %lld days, seed %llu, holdout %.2f\n\n",
                    cell.phones, cell.days,
                    static_cast<unsigned long long>(config.fleetConfig.seed),
                    options.holdoutSplit);
        const core::FailureStudy study{config};
        results = study.runFieldStudy();
    }

    const srgm::SrgmReport report =
        srgm::analyzeSrgm(results->dataset, results->classification, options);
    std::printf("%s", srgm::renderSrgmText(report).c_str());

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, srgm::srgmToJson(report), "srgm JSON");
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = srgm::exportSrgmCsv(report, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        srgm::publishSrgmMetrics(report, registry);
        writeMetricsFile(registry, *path);
    }

    if (hasFlag(args, "--check")) {
        const srgm::GroupReport& fleet = report.fleet;
        std::string violation;
        char buf[160];
        if (fleet.bestIndex >= fleet.fits.size()) {
            violation = "no model converged on the fleet sequence";
        } else if (fleet.fits[fleet.bestIndex].ksDistance > maxKs) {
            std::snprintf(buf, sizeof buf, "fleet KS distance %.4f > max %.4f",
                          fleet.fits[fleet.bestIndex].ksDistance, maxKs);
            violation = buf;
        } else if (!fleet.holdout.valid) {
            violation = "holdout forecast has insufficient data";
        } else if (fleet.holdout.countRelError > maxCountErr) {
            std::snprintf(buf, sizeof buf,
                          "holdout count relative error %.4f > max %.4f",
                          fleet.holdout.countRelError, maxCountErr);
            violation = buf;
        } else if (fleet.holdout.preqGainVsHpp < minPreqGain) {
            std::snprintf(buf, sizeof buf,
                          "prequential gain vs HPP %.4f < min %.4f",
                          fleet.holdout.preqGainVsHpp, minPreqGain);
            violation = buf;
        }
        if (!violation.empty()) {
            std::printf("srgm check: FAIL (%s)\n", violation.c_str());
            return 1;
        }
        std::printf("srgm check: OK\n");
    }
    return 0;
}

/// Parses `--fleet-sizes N,M,...` as a strict comma list of phone counts,
/// each read like `--phones`.
std::vector<int> fleetSizesOption(const std::vector<std::string>& args,
                                  std::vector<int> fallback) {
    const auto value = option(args, "--fleet-sizes");
    if (!value) return fallback;
    std::vector<int> sizes;
    for (std::size_t start = 0;;) {
        const std::size_t comma = std::min(value->find(',', start), value->size());
        const auto parsed = experiment::parseNumber(
            std::string_view{*value}.substr(start, comma - start));
        if (!parsed) {
            throw std::runtime_error("invalid value for --fleet-sizes: " + *value);
        }
        sizes.push_back(static_cast<int>(
            experiment::axis("phones").bounds.check("--fleet-sizes", *parsed)));
        if (comma == value->size()) return sizes;
        start = comma + 1;
    }
}

int runPerf(const std::vector<std::string>& args) {
    requireKnownFlags(args, {kFleetFlags,
                             "--fleet-sizes= --sample-hours= --stride= --json= --csv= "
                             "--metrics= --check --max-bytes-per-phone= "
                             "--min-phone-hours-per-sec="});
    validateOutputPaths(args);
    core::PerfOptions options;
    // --phones/--days/--seed parse (and reject malformed values) exactly
    // like every other campaign subcommand; --phones collapses the ladder
    // to one rung unless --fleet-sizes overrides it.
    const auto campaign = campaignCell(args, {.days = options.days});
    options.days = campaign.days;
    options.seed = seedOption(args, options.seed);
    options.fleetSizes = fleetSizesOption(
        args, option(args, "--phones") ? std::vector<int>{campaign.phones}
                                       : options.fleetSizes);
    options.sampleHours = static_cast<long long>(
        numberOption(args, "--sample-hours", 6, {1.0, 10'000.0, true}));
    options.samplingStride = static_cast<std::uint64_t>(
        numberOption(args, "--stride", 64, {1.0, 1'000'000.0, true}));
    // Bounds parse up front so a malformed knob fails before the ladder
    // burns minutes; 0 disables a bound (the CI smoke job pins calibrated
    // values).
    const double maxBytesPerPhone =
        numberOption(args, "--max-bytes-per-phone", 0.0, {0.0, 1e15});
    const double minPhoneHoursPerSec =
        numberOption(args, "--min-phone-hours-per-sec", 0.0, {0.0, 1e15});

    std::string sizesLabel;
    for (const int phones : options.fleetSizes) {
        if (!sizesLabel.empty()) sizesLabel += ",";
        sizesLabel += std::to_string(phones);
    }
    std::printf("perf: fleet sizes %s, %lld days each, seed %llu\n\n",
                sizesLabel.c_str(), options.days,
                static_cast<unsigned long long>(options.seed));
    const core::PerfReport report = core::runPerfScaling(options);
    std::printf("%s\n", core::renderPerfText(report).c_str());

    if (const auto path = option(args, "--json")) {
        writeTextFile(*path, core::perfToJson(report), "perf JSON");
    }
    if (const auto dir = option(args, "--csv")) {
        const auto files = core::exportPerfCsv(report, *dir);
        std::printf("wrote %zu CSV files to %s\n", files.size(), dir->c_str());
    }
    if (const auto path = option(args, "--metrics")) {
        obs::MetricsRegistry registry;
        core::publishPerfMetrics(report, registry);
        writeMetricsFile(registry, *path);
    }

    if (hasFlag(args, "--check")) {
        std::string violation;
        char buf[160];
        for (const core::PerfCell& cell : report.cells) {
            if (maxBytesPerPhone > 0.0 && cell.bytesPerPhone > maxBytesPerPhone) {
                std::snprintf(buf, sizeof buf,
                              "%d phones: %.0f bytes/phone > max %.0f",
                              cell.phones, cell.bytesPerPhone, maxBytesPerPhone);
                violation = buf;
                break;
            }
            if (minPhoneHoursPerSec > 0.0 &&
                cell.phoneHoursPerSec < minPhoneHoursPerSec) {
                std::snprintf(buf, sizeof buf,
                              "%d phones: %.0f phone-hours/sec < min %.0f",
                              cell.phones, cell.phoneHoursPerSec,
                              minPhoneHoursPerSec);
                violation = buf;
                break;
            }
        }
        if (!violation.empty()) {
            std::printf("perf check: FAIL (%s)\n", violation.c_str());
            return 1;
        }
        std::printf("perf check: OK\n");
    }
    return 0;
}

int runForum(const std::vector<std::string>& args) {
    requireKnownFlags(args, {"--reports= --seed="});
    core::StudyConfig config;
    config.forumConfig.failureReports = static_cast<int>(
        numberOption(args, "--reports", config.forumConfig.failureReports,
                     {1.0, 100'000.0, true}));
    config.forumSeed = seedOption(args, config.forumSeed);
    const core::FailureStudy study{config};
    const auto result = study.runForumStudy();
    std::printf("%s\n%s", core::renderTable1(result).c_str(),
                core::renderForumSummary(result).c_str());
    return 0;
}

int runTables(const std::vector<std::string>& args) {
    requireKnownFlags(args, {});
    std::printf("Panic taxonomy (Table 2 of the paper):\n\n");
    for (const auto& row : symbos::paperPanicTable()) {
        std::printf("  %-20s %6.2f%%  %.70s\n", symbos::toString(row.id).c_str(),
                    row.paperPercent,
                    std::string{symbos::panicMeaning(row.id)}.c_str());
    }
    std::printf("\nFailure/recovery taxonomy (Table 1 of the paper):\n\n");
    for (const auto& cell : forum::paperTable1()) {
        if (cell.percent <= 0.0) continue;
        std::printf("  %-18s via %-16s %6.2f%%\n",
                    std::string{forum::toString(cell.type)}.c_str(),
                    std::string{forum::toString(cell.recovery)}.c_str(), cell.percent);
    }
    return 0;
}

}  // namespace

experiment::Cell campaignCell(const std::vector<std::string>& args,
                              experiment::Cell defaults) {
    for (const experiment::Axis& axis : experiment::axes()) {
        if (axis.flag.empty()) continue;
        axis.set(defaults,
                 numberOption(args, axis.flag, axis.get(defaults), axis.bounds));
    }
    if (option(args, "--outage-days") && !option(args, "--outage-day")) {
        throw std::runtime_error("--outage-days requires --outage-day");
    }
    return defaults;
}

int runCli(const std::vector<std::string>& args) {
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
        printUsage();
        return args.empty() ? 2 : 0;
    }
    const std::string command = args[0];
    const std::vector<std::string> rest{args.begin() + 1, args.end()};
    try {
        if (command == "campaign") return runCampaign(rest);
        if (command == "obs") return runObs(rest);
        if (command == "transport") return runTransport(rest);
        if (command == "trace") return runTrace(rest);
        if (command == "sweep") return runSweep(rest);
        if (command == "osfault") return runOsfault(rest);
        if (command == "monitor") return runMonitor(rest);
        if (command == "analyze") return runAnalyze(rest);
        if (command == "crash") return runCrash(rest);
        if (command == "srgm") return runSrgm(rest);
        if (command == "perf") return runPerf(rest);
        if (command == "forum") return runForum(rest);
        if (command == "tables") return runTables(rest);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "%s: %s\n", command.c_str(), error.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    printUsage();
    return 2;
}

}  // namespace symfail::cli
