// Robustness fuzzing of the log parsers: no input — random bytes, bit
// flips of valid logs, truncations — may crash the pipeline; damage is
// counted, never fatal.  A deployment's logs pass through battery pulls,
// flash rotation and transfer infrastructure; the analysis must shrug at
// anything.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/dataset.hpp"
#include "crash/dump.hpp"
#include "logger/dexc.hpp"
#include "logger/records.hpp"
#include "phone/flash.hpp"
#include "simkernel/rng.hpp"
#include "transport/frame.hpp"
#include "transport/reassembly.hpp"

namespace symfail::logger {
namespace {

std::string randomBytes(sim::Rng& rng, std::size_t n) {
    std::string out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        out += static_cast<char>(rng.uniformInt(0, 255));
    }
    return out;
}

std::string validLog() {
    std::string content;
    content += serialize(MetaRecord{sim::TimePoint::fromMicros(0), "8.0"}) + "\n";
    BootRecord boot;
    boot.time = sim::TimePoint::fromMicros(1'000'000);
    boot.prior = PriorShutdown::Freeze;
    boot.lastBeatAt = sim::TimePoint::fromMicros(900'000);
    content += serialize(boot) + "\n";
    PanicRecord panic;
    panic.time = sim::TimePoint::fromMicros(2'000'000);
    panic.panic = symbos::kKernExecAccessViolation;
    panic.runningApps = {"Messages", "Camera"};
    panic.activity = ActivityContext::VoiceCall;
    panic.batteryPercent = 64;
    content += serialize(panic) + "\n";
    content += serialize(UserReportRecord{sim::TimePoint::fromMicros(3'000'000),
                                          "wrong volume"}) +
               "\n";
    return content;
}

class RecordsFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordsFuzz, RandomBytesNeverCrashParsers) {
    sim::Rng rng{GetParam()};
    for (int round = 0; round < 50; ++round) {
        const auto blob =
            randomBytes(rng, static_cast<std::size_t>(rng.uniformInt(0, 2'000)));
        std::size_t malformed = 0;
        const auto entries = parseLogFile(blob, &malformed);
        // Whatever parsed is accounted; nothing threw.
        EXPECT_LE(entries.size() + malformed, 2'001u);
        (void)parseBeat(blob.substr(0, std::min<std::size_t>(blob.size(), 64)));
        (void)DExcTool::parse(blob);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordsFuzz, ::testing::Range<std::uint64_t>(1, 9));

class RecordsMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordsMutation, BitFlipsDegradeGracefully) {
    sim::Rng rng{GetParam()};
    const std::string original = validLog();
    for (int round = 0; round < 200; ++round) {
        std::string mutated = original;
        const int flips = static_cast<int>(rng.uniformInt(1, 8));
        for (int f = 0; f < flips; ++f) {
            const auto pos = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
            mutated[pos] = static_cast<char>(mutated[pos] ^
                                             (1 << rng.uniformInt(0, 7)));
        }
        std::size_t malformed = 0;
        const auto entries = parseLogFile(mutated, &malformed);
        EXPECT_LE(entries.size(), 4u);
        // The dataset layer also survives the damaged input.
        const auto ds = analysis::LogDataset::build(
            {analysis::PhoneLog{"fuzz", mutated}});
        EXPECT_LE(ds.panics().size(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordsMutation,
                         ::testing::Range<std::uint64_t>(1, 9));

class RecordsTruncation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecordsTruncation, EveryPrefixParses) {
    const std::string original = validLog();
    sim::Rng rng{GetParam()};
    for (int round = 0; round < 100; ++round) {
        const auto cut = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(original.size())));
        const auto prefix = original.substr(0, cut);
        std::size_t malformed = 0;
        const auto entries = parseLogFile(prefix, &malformed);
        // Intact leading lines always survive a tail truncation.
        if (cut >= original.size()) {
            EXPECT_EQ(entries.size(), 4u);
        }
        EXPECT_LE(entries.size(), 4u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordsTruncation,
                         ::testing::Range<std::uint64_t>(1, 5));

// A D_EXC line counts only when its time and type fields read whole: a
// trailing byte, as bit rot leaves behind, or a type past int used to
// count as a captured panic.
TEST(DExcParse, SkipsPartialAndOutOfRangeFields) {
    const auto ids = DExcTool::parse(
        "DEXC|100x|USER|11\nDEXC|100|USER|2147483648\nDEXC|100|USER|11x\n"
        "DEXC|200|USER|11\n");
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], symbos::kUserDesOverflow);
}

// -- Chunk-framing fuzz (the log-transport collection path) -------------------
//
// The transport reassembler sits between raw channel bytes and the
// parsers: whatever arrives — truncated frames, corrupted CRCs, shuffled
// sequence numbers, duplicates — it must never crash and never emit a
// record that was not in the phone's Log File.

std::string bigValidLog(int copies) {
    std::string content;
    for (int i = 0; i < copies; ++i) content += validLog();
    return content;
}

/// Every non-empty line of `reconstructed` must be a line of `original`:
/// the reassembler may drop data (lost segments) but never invent or
/// splice records.
void expectLineSubset(const std::string& reconstructed, const std::string& original) {
    std::set<std::string> originalLines;
    std::size_t start = 0;
    while (start < original.size()) {
        auto end = original.find('\n', start);
        if (end == std::string::npos) end = original.size();
        originalLines.insert(original.substr(start, end - start));
        start = end + 1;
    }
    start = 0;
    while (start < reconstructed.size()) {
        auto end = reconstructed.find('\n', start);
        if (end == std::string::npos) end = reconstructed.size();
        const std::string line = reconstructed.substr(start, end - start);
        if (!line.empty()) {
            EXPECT_TRUE(originalLines.contains(line))
                << "reassembler emitted a line not in the original log: " << line;
        }
        start = end + 1;
    }
}

class ChunkFramingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkFramingFuzz, DamagedFramesNeverCrashOrCorrupt) {
    sim::Rng rng{GetParam()};
    const std::string original = bigValidLog(12);

    for (int round = 0; round < 30; ++round) {
        const auto payloadBytes =
            static_cast<std::size_t>(rng.uniformInt(48, 512));
        auto frames = transport::chunkLogContent("fuzz", original, payloadBytes);

        // Shuffle sequence order (Fisher-Yates off the deterministic rng).
        for (std::size_t i = frames.size(); i > 1; --i) {
            const auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
            std::swap(frames[i - 1], frames[j]);
        }

        transport::Reassembler reassembler;
        for (const auto& frame : frames) {
            std::string wire = transport::encodeFrame(frame);
            const int fate = static_cast<int>(rng.uniformInt(0, 9));
            if (fate == 0) {
                // Truncated mid-frame (torn transfer).
                wire.resize(static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(wire.size()))));
            } else if (fate == 1) {
                // Corrupted byte (CRC must catch it).
                const auto pos = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(wire.size()) - 1));
                wire[pos] = static_cast<char>(wire[pos] ^
                                              (1 << rng.uniformInt(0, 7)));
            } else if (fate == 2) {
                // Dropped entirely.
                continue;
            } else if (fate == 3) {
                // Delivered twice.
                (void)reassembler.ingest(wire);
            }
            (void)reassembler.ingest(wire);
            // Random garbage interleaved with real frames.
            if (rng.bernoulli(0.1)) {
                (void)reassembler.ingest(randomBytes(
                    rng, static_cast<std::size_t>(rng.uniformInt(0, 200))));
            }
        }

        // Whatever survived reconstructs into a subset of the original
        // records, and the parsers shrug at it.
        const std::string rebuilt = reassembler.reconstruct("fuzz");
        expectLineSubset(rebuilt, original);
        std::size_t malformed = 0;
        const auto entries = parseLogFile(rebuilt, &malformed);
        EXPECT_EQ(malformed, 0u) << "reassembly gap produced a malformed line";
        EXPECT_LE(entries.size(), 12u * 4u);
        const auto ds =
            analysis::LogDataset::build({analysis::PhoneLog{"fuzz", rebuilt}});
        EXPECT_LE(ds.panics().size(), 12u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkFramingFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// -- DUMP-framing fuzz (the structured crash-dump records) --------------------
//
// Dump lines carry more structure than any other record — hex fields,
// bounded counts, two nested list encodings — so they get their own
// torn-write/corruption suites.  Damage must be counted, never fatal, and
// a corrupted count must never make the parser allocate unboundedly.

std::string validDumpLine() {
    crash::CrashDump dump;
    dump.time = sim::TimePoint::fromMicros(2'000'000);
    dump.panic = symbos::kKernExecAccessViolation;
    dump.faultAddress = 0x8001abcdu;
    dump.processName = "Messages";
    dump.cleanupDepth = 1;
    dump.trapActive = false;
    dump.schedulerAoCount = 4;
    dump.heapLiveCells = 200;
    dump.heapBytesInUse = 40'960;
    dump.heapTotalAllocs = 5'000;
    dump.runningApps = {"Messages", "Camera"};
    dump.frames = crash::backtraceFor(
        symbos::kKernExecAccessViolation,
        "unhandled exception: access violation dereferencing NULL");
    return crash::serialize(dump);
}

/// Parses one DUMP line the way the analysis reads it: through the Log
/// File parser.  nullopt when the line is malformed.
std::optional<crash::CrashDump> parseDump(std::string_view line) {
    const auto entries = parseLogFile(line);
    if (entries.size() != 1) return std::nullopt;
    return entries[0].dump;
}

/// A consolidated log whose panic carries its dump, as the logger writes it.
std::string validLogWithDump() {
    std::string content = validLog();
    content += validDumpLine() + "\n";
    return content;
}

class DumpFramingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DumpFramingFuzz, TruncatedDumpsNeverCrashAndNeverHalfParse) {
    const std::string line = validDumpLine();
    // A torn write inside the fixed 13-field structural region is rejected
    // whole — no dump with fields swapped or missing.  The trailing frame
    // list is the wire format's only open-ended field (last by design): a
    // cut there may still parse, but every scalar field must be intact.
    const auto parsedFull = parseDump(line);
    ASSERT_TRUE(parsedFull.has_value());
    const std::size_t lastBar = line.rfind('|');
    for (std::size_t cut = 0; cut < line.size(); ++cut) {
        const auto parsed = parseDump(line.substr(0, cut));
        if (cut <= lastBar) {
            EXPECT_FALSE(parsed.has_value()) << "prefix of length " << cut;
        } else if (parsed) {
            EXPECT_EQ(parsed->panic, parsedFull->panic);
            EXPECT_EQ(parsed->faultAddress, parsedFull->faultAddress);
            EXPECT_EQ(parsed->processName, parsedFull->processName);
            EXPECT_EQ(parsed->cleanupDepth, parsedFull->cleanupDepth);
            EXPECT_EQ(parsed->runningApps, parsedFull->runningApps);
        }
    }

    // The same holds through parseLogFile: a truncated trailing dump is
    // one malformed line, the intact records before it all survive.
    sim::Rng rng{GetParam()};
    const std::string original = validLogWithDump();
    for (int round = 0; round < 100; ++round) {
        const auto cut = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(original.size())));
        std::size_t malformed = 0;
        const auto entries = parseLogFile(original.substr(0, cut), &malformed);
        EXPECT_LE(entries.size(), 5u);
    }
    std::size_t malformed = 0;
    EXPECT_EQ(parseLogFile(original, &malformed).size(), 5u);
    EXPECT_EQ(malformed, 0u);
}

TEST_P(DumpFramingFuzz, OversizedCountsAndMutationsDegradeGracefully) {
    sim::Rng rng{GetParam()};
    const std::string original = validLogWithDump();
    for (int round = 0; round < 200; ++round) {
        std::string mutated = original;
        const int flips = static_cast<int>(rng.uniformInt(1, 10));
        for (int f = 0; f < flips; ++f) {
            const auto pos = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(mutated.size()) - 1));
            mutated[pos] = static_cast<char>(mutated[pos] ^
                                             (1 << rng.uniformInt(0, 7)));
        }
        std::size_t malformed = 0;
        const auto entries = parseLogFile(mutated, &malformed);
        EXPECT_LE(entries.size(), 5u);
        const auto ds = analysis::LogDataset::build(
            {analysis::PhoneLog{"fuzz", mutated}});
        EXPECT_LE(ds.dumps().size(), 1u);
    }

    // Hostile counts and frame lists are rejected outright, bounding what
    // a parser may allocate on behalf of one line.
    EXPECT_FALSE(parseDump("DUMP|1|KERN-EXEC|3|8001abcd|p|18446744073709551615|0|"
                           "0|0|0|0||f")
                     .has_value());
    std::string frames;
    for (int i = 0; i < 200; ++i) frames += "frame;";
    frames += "last";
    EXPECT_FALSE(parseDump("DUMP|1|KERN-EXEC|3|8001abcd|p|0|0|0|0|0|0||" + frames)
                     .has_value());
}

TEST_P(DumpFramingFuzz, DumpsInterleavedWithBeatsParseDeterministically) {
    // Beats live in their own flash file; when damage splices them into
    // the consolidated log between dump lines, each is one counted anomaly
    // and every intact DUMP still parses.
    sim::Rng rng{GetParam()};
    for (int round = 0; round < 50; ++round) {
        std::string content;
        std::size_t dumps = 0;
        std::size_t beats = 0;
        const int lines = static_cast<int>(rng.uniformInt(4, 24));
        for (int i = 0; i < lines; ++i) {
            if (rng.bernoulli(0.5)) {
                content += validDumpLine() + "\n";
                ++dumps;
            } else {
                BeatRecord beat;
                beat.time = sim::TimePoint::fromMicros(1'000 * i);
                beat.kind = BeatKind::Alive;
                content += serialize(beat) + "\n";
                ++beats;
            }
        }
        std::size_t malformed = 0;
        const auto entries = parseLogFile(content, &malformed);
        EXPECT_EQ(entries.size(), dumps);
        EXPECT_EQ(malformed, beats);
        for (const auto& entry : entries) {
            EXPECT_EQ(entry.type, LogFileEntry::Type::Dump);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DumpFramingFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

// -- Flash-plane-shaped corruption (the osfault flash plane's exact moves) ----
//
// The flash fault plane damages logs through three primitives only:
// FlashStore::corruptByte (bit rot), a torn write consumed by the fault
// injector hook, and a dropped write.  These suites drive the primitives
// themselves — not hand-rolled string surgery — so the fuzz corpus is
// byte-for-byte what a plane campaign produces.

/// Seeds the store with the canonical valid log, one appendLine per line
/// (as the logger writes it).
std::size_t seedLogFile(phone::FlashStore& flash) {
    const std::string original = validLogWithDump();
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < original.size()) {
        auto end = original.find('\n', start);
        if (end == std::string::npos) end = original.size();
        flash.appendLine(kLogFile, original.substr(start, end - start));
        ++lines;
        start = end + 1;
    }
    return lines;
}

TEST(FlashShapedFuzz, BitRotAtEveryOffsetPreservesFramingAndExactCounts) {
    phone::FlashStore pristine;
    const std::size_t lines = seedLogFile(pristine);
    const std::string original = pristine.content(kLogFile);

    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x10},
                                    std::uint8_t{0x80}}) {
        for (std::size_t offset = 0; offset < original.size(); ++offset) {
            phone::FlashStore flash;
            seedLogFile(flash);
            const bool flipped = flash.corruptByte(kLogFile, offset, mask);
            const std::string damaged = flash.content(kLogFile);
            // corruptByte never touches line framing, so the line count —
            // and the anomaly accounting — stays exact: every line either
            // parses or is counted malformed, nothing throws.
            EXPECT_EQ(std::count(damaged.begin(), damaged.end(), '\n'),
                      std::count(original.begin(), original.end(), '\n'));
            std::size_t malformed = 0;
            const auto entries = parseLogFile(damaged, &malformed);
            EXPECT_EQ(entries.size() + malformed, lines);
            if (flipped) {
                // Exactly the one byte at `offset` changed.
                ASSERT_EQ(damaged.size(), original.size());
                EXPECT_NE(damaged[offset], original[offset]);
                EXPECT_EQ(damaged.substr(0, offset), original.substr(0, offset));
                EXPECT_EQ(damaged.substr(offset + 1), original.substr(offset + 1));
            } else {
                EXPECT_EQ(damaged, original);
            }
        }
    }
}

/// Scripted injector: arms exactly one verdict for the next write.
class OneShotInjector final : public phone::FlashFaultInjector {
public:
    Verdict next{};
    Verdict onWrite(std::string_view /*file*/, std::string_view /*line*/) override {
        const Verdict verdict = next;
        next = {};
        return verdict;
    }
    [[nodiscard]] bool armed(std::string_view /*file*/) const override {
        return next.kind != Kind::None;
    }
};

TEST(FlashShapedFuzz, TornWritesAtEveryByteOffsetAreDetectedExactly) {
    const std::string line = validDumpLine();
    for (std::size_t keep = 0; keep <= line.size() + 1; ++keep) {
        phone::FlashStore flash;
        const std::size_t baseLines = seedLogFile(flash);
        const std::string before = flash.content(kLogFile);

        OneShotInjector injector;
        flash.setFaultInjector(&injector);
        injector.next = {phone::FlashFaultInjector::Kind::Torn, keep};
        flash.appendLine(kLogFile, line);
        // The torn write kept exactly `keep` of the line's bytes (capped
        // below the newline it always loses).
        EXPECT_EQ(flash.content(kLogFile).size(),
                  before.size() + std::min(keep, line.size()));

        const std::string damaged = flash.content(kLogFile);
        const phone::FlashTail tail = flash.readTail(kLogFile);
        if (keep == 0) {
            // The whole line (and its newline) was lost: the file reverts
            // to its pre-write bytes and the tail is clean.
            EXPECT_EQ(damaged, before);
            EXPECT_FALSE(tail.torn);
        } else {
            // A partial line survives without its newline; the torn tail
            // is detected and the last *complete* line still parses.
            EXPECT_TRUE(tail.torn);
            EXPECT_LE(damaged.size(), before.size() + line.size());
            const std::string recovered = flash.lastCompleteLine(kLogFile);
            std::size_t recoveredMalformed = 0;
            EXPECT_EQ(parseLogFile(recovered, &recoveredMalformed).size(), 1u);
            EXPECT_EQ(recoveredMalformed, 0u);
        }
        std::size_t malformed = 0;
        const auto entries = parseLogFile(damaged, &malformed);
        // The intact prefix always survives; the torn tail is at most one
        // anomaly (a short prefix of a record can still parse as a
        // degenerate record, so it lands in either bucket — but never
        // both, never a crash).
        EXPECT_GE(entries.size() + malformed, baseLines);
        EXPECT_LE(entries.size() + malformed, baseLines + 1);
    }
}

TEST(FlashShapedFuzz, DroppedWritesLeaveTheFileBitIdentical) {
    phone::FlashStore flash;
    seedLogFile(flash);
    const std::string before = flash.content(kLogFile);
    OneShotInjector injector;
    flash.setFaultInjector(&injector);
    injector.next = {phone::FlashFaultInjector::Kind::Drop, 0};
    flash.appendLine(kLogFile, validDumpLine());
    EXPECT_EQ(flash.content(kLogFile), before);
    std::size_t malformed = 0;
    (void)parseLogFile(flash.content(kLogFile), &malformed);
    EXPECT_EQ(malformed, 0u);
}

}  // namespace
}  // namespace symfail::logger
