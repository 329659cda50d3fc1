// Tests for the structured crash-dump subsystem: capture, wire format,
// signature normalization, family clustering, and the end-to-end
// guarantees the pipeline makes (determinism, analysis bit-identity with
// dumps on/off, ground-truth recovery, replay-equals-in-process).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/crash_families.hpp"
#include "core/export.hpp"
#include "core/logio.hpp"
#include "core/render.hpp"
#include "core/study.hpp"
#include "crash/cluster.hpp"
#include "crash/dump.hpp"
#include "crash/signature.hpp"
#include "logger/records.hpp"
#include "symbos/panic.hpp"

namespace symfail {
namespace {

crash::CrashDump sampleDump() {
    crash::CrashDump dump;
    dump.time = sim::TimePoint::fromMicros(123'456'789);
    dump.panic = symbos::kKernExecBadHandle;
    dump.faultAddress = 0x8001abcdu;
    dump.processName = "Messages";
    dump.cleanupDepth = 2;
    dump.trapActive = true;
    dump.schedulerAoCount = 5;
    dump.heapLiveCells = 321;
    dump.heapBytesInUse = 65536;
    dump.heapTotalAllocs = 9876;
    dump.runningApps = {"Messages", "Camera"};
    dump.frames = {"raise: object index lookup failed for raw handle 42",
                   "ObjectIndex::lookupName", "ExecHandler::LookupByIndex",
                   "Kernel::runInProcess"};
    return dump;
}

/// Parses one DUMP line the way the analysis reads it: through the Log
/// File parser.  nullopt when the line is malformed.
std::optional<crash::CrashDump> parseDump(std::string_view line) {
    const auto entries = logger::parseLogFile(line);
    if (entries.size() != 1) return std::nullopt;
    return entries[0].dump;
}

TEST(CrashDump, SerializeParseRoundTrip) {
    const auto dump = sampleDump();
    const auto line = serialize(dump);
    EXPECT_EQ(line.rfind("DUMP|", 0), 0u);
    const auto parsed = parseDump(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, dump);
}

TEST(CrashDump, SerializeStripsStructuralCharacters) {
    auto dump = sampleDump();
    dump.processName = "bad|proc;name";
    dump.runningApps = {"App|One,Two"};
    dump.frames = {"frame;with|specials"};
    const auto parsed = parseDump(serialize(dump));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->processName, "badprocname");
    EXPECT_EQ(parsed->runningApps, std::vector<std::string>{"AppOneTwo"});
    EXPECT_EQ(parsed->frames, std::vector<std::string>{"framewithspecials"});
}

TEST(CrashDump, ParserRejectsMalformedLines) {
    const auto good = serialize(sampleDump());
    EXPECT_TRUE(parseDump(good).has_value());
    // Wrong field count.
    EXPECT_FALSE(parseDump("DUMP|123").has_value());
    EXPECT_FALSE(parseDump(good + "|extra").has_value());
    // Unknown category, non-numeric fields, bad trap flag.
    EXPECT_FALSE(
        parseDump("DUMP|1|BOGUS-CAT|3|8001abcd|p|0|0|0|0|0|0||f")
            .has_value());
    EXPECT_FALSE(
        parseDump("DUMP|x|KERN-EXEC|3|8001abcd|p|0|0|0|0|0|0||f")
            .has_value());
    EXPECT_FALSE(
        parseDump("DUMP|1|KERN-EXEC|3|8001abcd|p|0|7|0|0|0|0||f")
            .has_value());
    // Corrupted structural counts must not be accepted (allocation bound).
    EXPECT_FALSE(
        parseDump("DUMP|1|KERN-EXEC|3|8001abcd|p|99999999|0|0|0|0|0||f")
            .has_value());
    // Oversized frame list.
    std::string frames;
    for (std::size_t i = 0; i < crash::kMaxFrames + 1; ++i) {
        if (i != 0) frames += ';';
        frames += "frame";
    }
    EXPECT_FALSE(parseDump("DUMP|1|KERN-EXEC|3|8001abcd|p|0|0|0|0|0|0||" +
                                      frames)
                     .has_value());
}

TEST(CrashSignature, NormalizationStripsPerRunNoise) {
    EXPECT_EQ(crash::normalizeFrame("raise: raw handle 42 at 0x8001abcd"),
              "raise: raw handle # at 0x#");
    EXPECT_EQ(crash::normalizeFrame("ObjectIndex::lookupName"),
              "ObjectIndex::lookupName");
    EXPECT_EQ(crash::normalizeFrame("monopolized for 3.7s"),
              "monopolized for #.#s");
}

TEST(CrashSignature, SameMechanismDifferentNoiseSameFamilyId) {
    auto a = sampleDump();
    auto b = sampleDump();
    b.faultAddress = 0xdeadbeefu;
    b.frames[0] = "raise: object index lookup failed for raw handle 977";
    b.time = sim::TimePoint::fromMicros(999);
    const auto sigA = crash::signatureOf(a);
    const auto sigB = crash::signatureOf(b);
    EXPECT_EQ(sigA, sigB);
    EXPECT_EQ(crash::familyIdFor(sigA), crash::familyIdFor(sigB));
    EXPECT_EQ(crash::familyIdFor(sigA).rfind("F-", 0), 0u);
}

TEST(CrashSignature, SimilarityIsZeroAcrossPanicIds) {
    auto a = sampleDump();
    auto b = sampleDump();
    b.panic = symbos::kKernExecAccessViolation;
    EXPECT_EQ(crash::similarity(crash::signatureOf(a), crash::signatureOf(b)), 0.0);
    EXPECT_EQ(crash::similarity(crash::signatureOf(a), crash::signatureOf(a)), 1.0);
}

TEST(CrashClusterer, ExactSignaturesBucketTogether) {
    crash::CrashClusterer clusterer;
    auto a = sampleDump();
    auto b = sampleDump();
    b.faultAddress = 0x12345678u;
    b.frames[0] = "raise: object index lookup failed for raw handle 7";
    clusterer.add("phone-0", a);
    clusterer.add("phone-1", b);
    const auto families = clusterer.families();
    ASSERT_EQ(families.size(), 1u);
    EXPECT_EQ(families[0].dumps, 2u);
    EXPECT_EQ(families[0].distinctSignatures, 1u);
    EXPECT_EQ(families[0].perPhone.size(), 2u);
}

TEST(CrashClusterer, NearMissSignaturesMergeAboveThreshold) {
    crash::CrashClusterer clusterer;
    auto a = sampleDump();
    a.frames = {"f1", "f2", "f3", "f4", "f5", "f6"};
    auto b = sampleDump();
    // 5 of 6 frames shared: similarity 0.833 > 0.8 merges into a's family.
    b.frames = {"f1", "f2", "f3", "f4", "f5", "renamed"};
    // 4 of 6 shared: 0.667 opens a new family.
    auto c = sampleDump();
    c.frames = {"f1", "f2", "f3", "f4", "x", "y"};
    clusterer.add("phone-0", a);
    clusterer.add("phone-0", b);
    clusterer.add("phone-0", c);
    const auto families = clusterer.families();
    ASSERT_EQ(families.size(), 2u);
    EXPECT_EQ(families[0].dumps, 2u);
    EXPECT_EQ(families[0].distinctSignatures, 2u);
    EXPECT_EQ(families[1].dumps, 1u);
}

TEST(LogParsing, UnknownPanicCategoryCountsAsAnomalyNotException) {
    // Satellite: a log line with an unrecognized category string must be
    // skipped and counted, never thrown out of the parser.
    const std::string content =
        "META|0|7.1\n"
        "PANIC|1000|NOT-A-CATEGORY|3|Messages|voice-call|80\n"
        "PANIC|2000|KERN-EXEC|3|Messages|voice-call|80\n";
    std::size_t malformed = 0;
    const auto entries = logger::parseLogFile(content, &malformed);
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(malformed, 1u);
    EXPECT_FALSE(symbos::parsePanicCategory("NOT-A-CATEGORY").has_value());
    EXPECT_TRUE(symbos::parsePanicCategory("KERN-EXEC").has_value());
}

core::StudyConfig campaignConfig(std::uint64_t seed = 17) {
    core::StudyConfig config;
    config.fleetConfig.phoneCount = 3;
    config.fleetConfig.campaign = sim::Duration::days(30);
    config.fleetConfig.enrollmentWindow = sim::Duration::days(5);
    config.fleetConfig.seed = seed;
    config.fleetConfig.freezesPerHour *= 10.0;
    config.fleetConfig.selfShutdownsPerHour *= 10.0;
    config.fleetConfig.panicsPerHour *= 10.0;
    return config;
}

TEST(CrashPipeline, EveryPanicProducesExactlyOneDump) {
    const core::FailureStudy study{campaignConfig()};
    const auto results = study.runFieldStudy();
    ASSERT_GT(results.dataset.panics().size(), 0u);
    EXPECT_EQ(results.dataset.dumps().size(), results.dataset.panics().size());
    // Dumps share the panic timestamp, so they never shift spans/tables.
    EXPECT_EQ(results.crashFamilies.totalDumps, results.dataset.dumps().size());
}

TEST(CrashPipeline, FamilyRecoversGroundTruth) {
    // Each injected fault class drives one mechanism (one propagation
    // chain), so clustering must map every panic id onto exactly one
    // family — the acceptance criterion for ground-truth recovery.
    const core::FailureStudy study{campaignConfig()};
    const auto results = study.runFieldStudy();
    ASSERT_GT(results.crashFamilies.familyCount(), 0u);
    std::map<std::string, std::size_t> familiesPerPanic;
    for (const auto& row : results.crashFamilies.rows) {
        ++familiesPerPanic[symbos::toString(row.panic)];
    }
    for (const auto& [panic, count] : familiesPerPanic) {
        EXPECT_EQ(count, 1u) << panic << " split into " << count << " families";
    }
    // And the dominant family matches Table 2's dominant panic.
    std::size_t maxCount = 0;
    symbos::PanicId dominant{};
    for (const auto& row : results.table2) {
        if (row.count > maxCount) {
            maxCount = row.count;
            dominant = row.panic;
        }
    }
    ASSERT_GT(maxCount, 0u);
    EXPECT_EQ(symbos::toString(results.crashFamilies.rows.front().panic),
              symbos::toString(dominant));
}

TEST(CrashPipeline, ClusteringIsDeterministicAcrossRuns) {
    const core::FailureStudy study{campaignConfig()};
    const auto first = study.runFieldStudy();
    const auto second = study.runFieldStudy();
    EXPECT_EQ(core::crashFamiliesToJson(first), core::crashFamiliesToJson(second));
    EXPECT_EQ(core::renderCrashFamilies(first), core::renderCrashFamilies(second));
}

TEST(CrashPipeline, AnalysisIsBitIdenticalWithDumpsOnAndOff) {
    // The dump records ride the log alongside the panic records; disabling
    // capture must not move a single number in the paper's artifacts.
    auto config = campaignConfig();
    config.fleetConfig.loggerConfig.captureDumps = true;
    const auto on = core::FailureStudy{config}.runFieldStudy();
    config.fleetConfig.loggerConfig.captureDumps = false;
    const auto off = core::FailureStudy{config}.runFieldStudy();

    EXPECT_GT(on.dataset.dumps().size(), 0u);
    EXPECT_EQ(off.dataset.dumps().size(), 0u);
    EXPECT_EQ(core::renderHeadline(on), core::renderHeadline(off));
    EXPECT_EQ(core::renderTable2(on), core::renderTable2(off));
    EXPECT_EQ(core::renderFig3(on), core::renderFig3(off));
    EXPECT_EQ(core::renderFig5(on), core::renderFig5(off));
    EXPECT_EQ(core::renderTable3(on), core::renderTable3(off));
    EXPECT_EQ(core::renderFig6(on), core::renderFig6(off));
    EXPECT_EQ(core::renderTable4(on), core::renderTable4(off));
    EXPECT_EQ(core::renderEvaluation(on), core::renderEvaluation(off));
}

TEST(CrashPipeline, ReplayFromDiskEqualsInProcessClustering) {
    // The deployment workflow: save the collected logs, re-load them (the
    // `symfail crash` path) and cluster — families must be identical to
    // the in-process run.
    const core::FailureStudy study{campaignConfig()};
    const auto full = study.runFieldStudy();

    const auto dir = std::filesystem::temp_directory_path() / "symfail-crash-replay";
    std::filesystem::remove_all(dir);
    (void)core::saveLogs(full.fleet.logs, dir.string());
    const auto replay = study.analyzeLogs(core::loadLogs(dir.string()));
    std::filesystem::remove_all(dir);

    EXPECT_EQ(core::crashFamiliesToJson(replay), core::crashFamiliesToJson(full));
    ASSERT_EQ(replay.crashFamilies.rows.size(), full.crashFamilies.rows.size());
    for (std::size_t i = 0; i < replay.crashFamilies.rows.size(); ++i) {
        EXPECT_EQ(replay.crashFamilies.rows[i].familyId,
                  full.crashFamilies.rows[i].familyId);
        EXPECT_EQ(replay.crashFamilies.rows[i].dumps,
                  full.crashFamilies.rows[i].dumps);
    }
}

TEST(CrashPipeline, RenderAndExportCarryFamilies) {
    const core::FailureStudy study{campaignConfig()};
    const auto results = study.runFieldStudy();
    const auto rendered = core::renderCrashFamilies(results);
    EXPECT_NE(rendered.find("Crash families"), std::string::npos);
    EXPECT_NE(rendered.find("F-"), std::string::npos);

    const auto dir = std::filesystem::temp_directory_path() / "symfail-crash-export";
    std::filesystem::remove_all(dir);
    const auto files = core::exportCrashCsv(results, dir.string());
    ASSERT_EQ(files.size(), 1u);
    EXPECT_TRUE(std::filesystem::exists(dir / "crash_families.csv"));
    std::filesystem::remove_all(dir);

    const auto json = core::crashFamiliesToJson(results);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("\"total_dumps\""), std::string::npos);
    EXPECT_NE(json.find("\"families\""), std::string::npos);
}

}  // namespace
}  // namespace symfail
