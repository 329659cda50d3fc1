// Tests for the unreliable log-transport subsystem: framing, channel
// models, reassembly, the per-phone upload agent, and the fleet-level
// end-to-end delivery guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/dataset.hpp"
#include "fleet/fleet.hpp"
#include "logger/logger.hpp"
#include "logger/records.hpp"
#include "phone/device.hpp"
#include "phone/flash.hpp"
#include "simkernel/rng.hpp"
#include "simkernel/simulator.hpp"
#include "transport/channel.hpp"
#include "transport/frame.hpp"
#include "transport/metrics.hpp"
#include "transport/reassembly.hpp"
#include "transport/upload_agent.hpp"

namespace symfail::transport {
namespace {

// -- Framing ------------------------------------------------------------------

TEST(Frame, RoundTripsThroughEncodeDecode) {
    Frame frame;
    frame.phone = "phone-7";
    frame.seq = 3;
    frame.segCount = 9;
    frame.payload = "BOOT|1000|Freeze|900\nPANIC|2000|KERN-EXEC|3\n";
    const auto decoded = decodeFrame(encodeFrame(frame));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->phone, "phone-7");
    EXPECT_EQ(decoded->seq, 3u);
    EXPECT_EQ(decoded->segCount, 9u);
    EXPECT_EQ(decoded->payload, frame.payload);
}

TEST(Frame, CorruptionIsRejected) {
    Frame frame;
    frame.phone = "p";
    frame.seq = 1;
    frame.segCount = 2;
    frame.payload = "hello log line\n";
    const std::string wire = encodeFrame(frame);
    // Flip one bit anywhere: header, CRC field or payload.
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
        std::string damaged = wire;
        damaged[pos] = static_cast<char>(damaged[pos] ^ 0x10);
        const auto decoded = decodeFrame(damaged);
        if (decoded) {
            // The only tolerated damage would be a no-op; content must match.
            EXPECT_EQ(decoded->payload, frame.payload);
            EXPECT_EQ(decoded->seq, frame.seq);
        }
    }
    // Truncation is always rejected.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        EXPECT_FALSE(decodeFrame(wire.substr(0, cut)).has_value());
    }
}

TEST(Frame, AckRoundTripAndRejection) {
    const Ack ack{"phone-3", 12, 1024};
    const auto decoded = decodeAck(encodeAck(ack));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->phone, "phone-3");
    EXPECT_EQ(decoded->seq, 12u);
    EXPECT_EQ(decoded->payloadBytes, 1024u);
    EXPECT_FALSE(decodeAck("ACKv1|phone-3|12|1024|deadbeef").has_value());
    EXPECT_FALSE(decodeAck("garbage").has_value());
}

TEST(Frame, ChunkingIsLineAlignedWithStablePrefix) {
    std::string content;
    for (int i = 0; i < 40; ++i) {
        content += "RECORD|" + std::to_string(i) + "|payload-data-for-line\n";
    }
    const auto frames = chunkLogContent("p", content, 100);
    ASSERT_GT(frames.size(), 3u);
    std::string joined;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(frames[i].seq, i);
        EXPECT_EQ(frames[i].segCount, frames.size());
        // Line alignment: every segment ends exactly at a record boundary.
        EXPECT_EQ(frames[i].payload.back(), '\n');
        joined += frames[i].payload;
    }
    EXPECT_EQ(joined, content);

    // Append-only growth: earlier segments do not change, the tail extends.
    const auto grown = chunkLogContent("p", content + "RECORD|40|more\n", 100);
    ASSERT_GE(grown.size(), frames.size());
    for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
        EXPECT_EQ(grown[i].payload, frames[i].payload);
    }
    EXPECT_TRUE(grown[frames.size() - 1].payload.rfind(frames.back().payload, 0) == 0);
}

TEST(Frame, OversizedLineGetsItsOwnSegment) {
    const std::string big(500, 'x');
    const std::string content = "short\n" + big + "\nshort2\n";
    const auto frames = chunkLogContent("p", content, 64);
    std::string joined;
    for (const auto& frame : frames) joined += frame.payload;
    EXPECT_EQ(joined, content);
    // The oversized line is intact inside a single segment.
    bool found = false;
    for (const auto& frame : frames) {
        if (frame.payload.find(big) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found);
}

/// The packer as first written, string by string: the reference for
/// segmentSpans and chunkLogContent.
std::vector<std::string> referenceChunks(std::string_view content, std::size_t payloadBytes) {
    if (payloadBytes == 0) payloadBytes = 1;
    std::vector<std::string> chunks;
    std::string current;
    const auto flush = [&]() {
        if (current.empty()) return;
        chunks.push_back(current);
        current.clear();
    };
    std::size_t start = 0;
    while (start < content.size()) {
        const auto lineEnd = content.find('\n', start);
        const std::size_t stop =
            lineEnd == std::string_view::npos ? content.size() : lineEnd + 1;
        const std::string_view line = content.substr(start, stop - start);
        if (!current.empty() && current.size() + line.size() > payloadBytes) flush();
        current += line;
        if (current.size() >= payloadBytes) flush();
        start = stop;
    }
    flush();
    return chunks;
}

/// A line length from 0 to 3x `payloadBytes`: half the time uniform, half
/// the time one whose line, with its '\n', fills a segment exactly: on its
/// own, after a one-byte line, or as one of two halves.
std::size_t randomLineLength(sim::Rng& rng, std::size_t payloadBytes) {
    if (rng.bernoulli(0.5)) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(3 * payloadBytes)));
    }
    const std::array<std::size_t, 4> filling{0, payloadBytes / 2 - 1, payloadBytes - 2,
                                             payloadBytes - 1};
    const std::size_t length = filling[static_cast<std::size_t>(rng.uniformInt(0, 3))];
    return length > 3 * payloadBytes ? 0 : length;  // the small payloads wrap
}

/// Appends `lines` random lines, and maybe a torn tail without its '\n'.
void appendRandomLines(sim::Rng& rng, std::string& content, std::size_t payloadBytes,
                       int lines) {
    const auto text = [&](std::size_t length) {
        for (std::size_t i = 0; i < length; ++i) {
            content += static_cast<char>('a' + rng.uniformInt(0, 25));
        }
    };
    for (int i = 0; i < lines; ++i) {
        text(randomLineLength(rng, payloadBytes));
        content += '\n';
    }
    if (rng.bernoulli(0.5)) text(std::max<std::size_t>(1, randomLineLength(rng, payloadBytes)));
}

void expectSameSegments(const std::string& content, std::size_t payloadBytes) {
    const std::vector<std::string> expected = referenceChunks(content, payloadBytes);
    const std::vector<SegmentSpan> spans = segmentSpans(content, payloadBytes);
    const std::vector<Frame> frames = chunkLogContent("p", content, payloadBytes);
    ASSERT_EQ(spans.size(), expected.size());
    ASSERT_EQ(frames.size(), expected.size());
    std::size_t offset = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(spans[i].offset, offset) << "segment " << i;
        EXPECT_EQ(spans[i].length, expected[i].size()) << "segment " << i;
        EXPECT_EQ(content.substr(spans[i].offset, spans[i].length), expected[i]);
        EXPECT_EQ(frames[i].payload, expected[i]) << "segment " << i;
        EXPECT_EQ(frames[i].seq, i);
        EXPECT_EQ(frames[i].segCount, expected.size());
        offset += expected[i].size();
    }
    EXPECT_EQ(offset, content.size());
}

TEST(Frame, SegmentSpansMatchTheReferenceChunker) {
    sim::Rng rng{2026};
    for (const std::size_t payloadBytes : {std::size_t{1}, std::size_t{64}, std::size_t{2048}}) {
        for (int file = 0; file < 25; ++file) {
            SCOPED_TRACE(testing::Message() << "payload " << payloadBytes << " file " << file);
            std::string content;
            // The Log File grows, gets torn, and grows on from the tear.
            for (int step = 0; step < 6; ++step) {
                if (step % 3 == 2) {
                    content.resize(static_cast<std::size_t>(
                        rng.uniformInt(0, static_cast<std::int64_t>(content.size()))));
                } else {
                    appendRandomLines(rng, content, payloadBytes,
                                      static_cast<int>(rng.uniformInt(0, 12)));
                }
                expectSameSegments(content, payloadBytes);
            }
        }
    }
    expectSameSegments("", 64);
    expectSameSegments("\n\n\n", 1);
    expectSameSegments("no newline at all", 0);
}

/// Tears the next write after keeping `keep` of its bytes, as the flash
/// plane's torn-write verdict does.
class TearNextWrite final : public phone::FlashFaultInjector {
public:
    void arm(std::size_t keep) {
        armed_ = true;
        keep_ = keep;
    }
    Verdict onWrite(std::string_view /*file*/, std::string_view /*line*/) override {
        if (!std::exchange(armed_, false)) return {};
        return {Kind::Torn, keep_};
    }
    [[nodiscard]] bool armed(std::string_view /*file*/) const override { return armed_; }

private:
    bool armed_{false};
    std::size_t keep_{0};
};

// The upload agent keeps the Log File's spans between rounds and re-splits
// only where an append can move them; it must always agree with a split of
// the whole file.  A round comes after one to four changes of the file:
// appends (short lines, lines longer than a payload, lines that fill one
// exactly), torn writes that leave a tail without its newline, tears that
// cut back into earlier lines, bit flips, and finally appends of 1 MiB
// lines until the file rotates.
TEST(Frame, SegmentSpanCacheMatchesAFreshSplit) {
    constexpr std::string_view kFile = "logfile";
    for (const std::size_t payloadBytes : {std::size_t{64}, std::size_t{2048}}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "payload " << payloadBytes << " seed " << seed);
            sim::Rng rng{seed};
            phone::FlashStore flash;
            TearNextWrite tear;
            flash.setFaultInjector(&tear);
            SegmentSpanCache cache{payloadBytes};
            const auto line = [&](std::size_t length) {
                std::string text(length, ' ');
                for (char& c : text) c = static_cast<char>('a' + rng.uniformInt(0, 25));
                return text;
            };
            const auto expectFreshSplit = [&](int round) {
                const std::string& content = flash.content(kFile);
                const std::vector<SegmentSpan>& cached =
                    cache.update(content, flash.rewrites(kFile));
                const std::vector<SegmentSpan> fresh =
                    segmentSpans(content, payloadBytes);
                ASSERT_EQ(cached.size(), fresh.size()) << "round " << round;
                for (std::size_t i = 0; i < fresh.size(); ++i) {
                    ASSERT_EQ(cached[i].offset, fresh[i].offset) << "round " << round;
                    ASSERT_EQ(cached[i].length, fresh[i].length) << "round " << round;
                }
            };
            const auto below = [&](std::size_t limit) {
                return static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(limit) - 1));
            };
            int round = 0;
            for (; round < 150; ++round) {
                for (auto step = rng.uniformInt(1, 4); step > 0; --step) {
                    const std::size_t size = flash.content(kFile).size();
                    switch (rng.uniformInt(0, 9)) {
                        case 0:  // a torn write: the line lands without its '\n'
                            tear.arm(below(41));
                            flash.appendLine(kFile, line(40));
                            break;
                        case 1: {  // a tear back into the lines before
                            const std::size_t most = std::min(size + 1, 3 * payloadBytes);
                            flash.tearTail(kFile, 1 + below(most));
                            break;
                        }
                        case 2:  // bit rot
                            if (size > 0) {
                                const std::size_t at = below(size);
                                const std::size_t bit = below(8);
                                const auto mask = static_cast<std::uint8_t>(1U << bit);
                                (void)flash.corruptByte(kFile, at, mask);
                            }
                            break;
                        default:
                            flash.appendLine(kFile,
                                             line(randomLineLength(rng, payloadBytes)));
                            break;
                    }
                }
                expectFreshSplit(round);
            }
            // One rotation: it drops the older half of the file.
            const std::uint64_t rewritesBefore = flash.rewrites(kFile);
            std::uint64_t rotations = 0;
            for (; rotations == 0; ++round) {
                const std::size_t size = flash.content(kFile).size();
                flash.appendLine(kFile, std::string(std::size_t{1} << 20, 'r'));
                flash.appendLine(kFile, line(randomLineLength(rng, payloadBytes)));
                rotations = flash.rewrites(kFile) - rewritesBefore;
                EXPECT_TRUE(rotations == 0 ||
                            flash.content(kFile).size() < size + (std::size_t{1} << 20));
                expectFreshSplit(round);
            }
            for (const int grow : {1, 3, 7}) {
                for (int i = 0; i < grow; ++i) {
                    flash.appendLine(kFile, line(randomLineLength(rng, payloadBytes)));
                }
                expectFreshSplit(round++);
            }
        }
    }
}

/// CRC-32/ISO-HDLC one bit at a time: the register after each byte.
std::uint32_t bitwiseCrcStep(std::uint32_t reg, unsigned char byte) {
    reg ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
        reg = (reg & 1u) ? (0xEDB88320u ^ (reg >> 1)) : (reg >> 1);
    }
    return reg;
}

TEST(Frame, Crc32MatchesTheCheckValueAndABitwiseReference) {
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);  // the catalogued check value
    EXPECT_EQ(crc32(""), 0u);
    // Every length from 0 to 4096 bytes at each of the 8 alignments of a
    // word, against the reference run over the same bytes.
    sim::Rng rng{29};
    std::vector<unsigned char> buffer(4096 + 8);
    for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.uniformInt(0, 255));
    for (std::size_t align = 0; align < 8; ++align) {
        const std::string_view bytes{reinterpret_cast<const char*>(buffer.data()) + align,
                                     4096};
        std::uint32_t reg = 0xFFFFFFFFu;
        for (std::size_t length = 0; length <= bytes.size(); ++length) {
            ASSERT_EQ(crc32(bytes.substr(0, length)), ~reg)
                << "length " << length << " alignment " << align;
            if (length < bytes.size()) reg = bitwiseCrcStep(reg, buffer[align + length]);
        }
    }
    // Resumable: the CRC of a split input continues across the split.
    const std::string_view text = "SEGv1|phone-7|3|9\nBOOT|1000|Freeze|900\n";
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        EXPECT_EQ(crc32(text.substr(cut), crc32(text.substr(0, cut))), crc32(text));
    }
}

// -- Channel -------------------------------------------------------------------

TEST(Channel, LosslessConfigDeliversEverythingInOrderStats) {
    sim::Simulator simulator;
    ChannelConfig config = ChannelConfig::memoryCard();
    Channel channel{simulator, config, 42};
    std::vector<std::string> received;
    channel.setReceiver([&](const std::string& bytes) { received.push_back(bytes); });
    for (int i = 0; i < 50; ++i) channel.send("frame-" + std::to_string(i));
    simulator.runAll();
    EXPECT_EQ(received.size(), 50u);
    EXPECT_EQ(channel.stats().framesLost, 0u);
    EXPECT_EQ(channel.stats().framesDelivered, 50u);
    EXPECT_EQ(channel.stats().latency.total(), 50u);
}

TEST(Channel, LossAndDuplicationAreAccounted) {
    sim::Simulator simulator;
    ChannelConfig config;
    config.lossProb = 0.3;
    config.dupProb = 0.2;
    config.reorderProb = 0.0;
    Channel channel{simulator, config, 7};
    std::uint64_t received = 0;
    channel.setReceiver([&](const std::string&) { ++received; });
    for (int i = 0; i < 2000; ++i) channel.send("x");
    simulator.runAll();
    const auto& stats = channel.stats();
    // ~30% loss, ~20% duplication of survivors.
    EXPECT_NEAR(static_cast<double>(stats.framesLost), 600.0, 120.0);
    EXPECT_GT(stats.framesDuplicated, 150u);
    EXPECT_EQ(received, stats.framesDelivered);
    EXPECT_EQ(stats.framesDelivered,
              2000u - stats.framesLost + stats.framesDuplicated);
}

TEST(Channel, DeterministicForSameSeed) {
    auto run = [](std::uint64_t seed) {
        sim::Simulator simulator;
        ChannelConfig config;
        config.lossProb = 0.2;
        config.dupProb = 0.1;
        Channel channel{simulator, config, seed};
        std::vector<std::string> received;
        channel.setReceiver(
            [&](const std::string& bytes) { received.push_back(bytes); });
        for (int i = 0; i < 200; ++i) channel.send(std::to_string(i));
        simulator.runAll();
        return received;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}

TEST(Channel, OutageWindowSwallowsFrames) {
    sim::Simulator simulator;
    ChannelConfig config = ChannelConfig::memoryCard();
    config.latencyMedian = sim::Duration::millis(1);
    config.outages.push_back(OutageWindow{
        sim::TimePoint::origin() + sim::Duration::hours(1),
        sim::TimePoint::origin() + sim::Duration::hours(2)});
    Channel channel{simulator, config, 3};
    std::uint64_t received = 0;
    channel.setReceiver([&](const std::string&) { ++received; });

    channel.send("before");  // now = 0: delivered
    simulator.scheduleAt(sim::TimePoint::origin() + sim::Duration::minutes(90),
                         [&]() { channel.send("during"); });
    simulator.scheduleAt(sim::TimePoint::origin() + sim::Duration::hours(3),
                         [&]() { channel.send("after"); });
    simulator.runAll();
    EXPECT_EQ(received, 2u);
    EXPECT_EQ(channel.stats().outageDrops, 1u);
    EXPECT_TRUE(channel.inOutage(sim::TimePoint::origin() + sim::Duration::minutes(61)));
    EXPECT_FALSE(channel.inOutage(sim::TimePoint::origin() + sim::Duration::hours(2)));
}

// -- Reassembly ----------------------------------------------------------------

std::string makeContent(int lines) {
    std::string content;
    for (int i = 0; i < lines; ++i) {
        content += "LINE|" + std::to_string(i) + "|abcdefghij\n";
    }
    return content;
}

TEST(Reassembler, MergesOutOfOrderAndSuppressesDuplicates) {
    const std::string content = makeContent(60);
    auto frames = chunkLogContent("p", content, 128);
    ASSERT_GT(frames.size(), 2u);

    Reassembler reassembler;
    // Deliver in reverse order, each twice.
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        const std::string wire = encodeFrame(*it);
        const auto ack1 = reassembler.ingest(wire).ack;
        const auto ack2 = reassembler.ingest(wire).ack;
        ASSERT_TRUE(ack1.has_value());
        // Duplicates are re-acked (heals lost acks), not dropped silently.
        ASSERT_TRUE(ack2.has_value());
        EXPECT_EQ(ack1->seq, it->seq);
        EXPECT_EQ(ack2->payloadBytes, ack1->payloadBytes);
    }
    EXPECT_DOUBLE_EQ(reassembler.coverage("p"), 1.0);
    EXPECT_EQ(reassembler.reconstruct("p"), content);
    EXPECT_EQ(reassembler.stats().duplicates, frames.size());
    EXPECT_EQ(reassembler.stats().segmentsStored, frames.size());
}

TEST(Reassembler, GrowingTailSegmentExtendsInPlace) {
    const std::string early = makeContent(3);
    const std::string late = makeContent(5);
    const auto framesEarly = chunkLogContent("p", early, 4096);
    const auto framesLate = chunkLogContent("p", late, 4096);
    ASSERT_EQ(framesEarly.size(), 1u);
    ASSERT_EQ(framesLate.size(), 1u);

    Reassembler reassembler;
    const auto ackEarly = reassembler.ingest(encodeFrame(framesEarly[0])).ack;
    const auto ackLate = reassembler.ingest(encodeFrame(framesLate[0])).ack;
    ASSERT_TRUE(ackEarly && ackLate);
    EXPECT_GT(ackLate->payloadBytes, ackEarly->payloadBytes);
    EXPECT_EQ(reassembler.reconstruct("p"), late);
    // The longer copy replaced the stored one: neither a new segment nor a
    // duplicate.
    EXPECT_EQ(reassembler.stats().segmentsStored, 1u);
    EXPECT_EQ(reassembler.stats().duplicates, 0u);

    // A stale shorter replay cannot shrink the stored copy.
    const auto ackStale = reassembler.ingest(encodeFrame(framesEarly[0])).ack;
    ASSERT_TRUE(ackStale.has_value());
    EXPECT_EQ(ackStale->payloadBytes, ackLate->payloadBytes);
    EXPECT_EQ(reassembler.reconstruct("p"), late);
}

TEST(Reassembler, GapsNeverFuseRecordsAcrossLostSegments) {
    const std::string content = makeContent(100);
    auto frames = chunkLogContent("p", content, 96);
    ASSERT_GT(frames.size(), 4u);

    Reassembler reassembler;
    for (const auto& frame : frames) {
        if (frame.seq == 2) continue;  // permanently lost
        (void)reassembler.ingest(encodeFrame(frame));
    }
    EXPECT_LT(reassembler.coverage("p"), 1.0);

    // Every line in the reconstruction is a line of the original: no
    // spliced/merged records.
    const std::string rebuilt = reassembler.reconstruct("p");
    std::set<std::string> originalLines;
    std::size_t start = 0;
    while (start < content.size()) {
        const auto end = content.find('\n', start);
        originalLines.insert(content.substr(start, end - start));
        start = end + 1;
    }
    start = 0;
    while (start < rebuilt.size()) {
        auto end = rebuilt.find('\n', start);
        if (end == std::string::npos) end = rebuilt.size();
        const std::string line = rebuilt.substr(start, end - start);
        if (!line.empty()) {
            EXPECT_TRUE(originalLines.contains(line)) << "spliced line: " << line;
        }
        start = end + 1;
    }
}

TEST(Reassembler, RejectsDamagedFramesAndStaysConsistent) {
    Reassembler reassembler;
    EXPECT_FALSE(reassembler.ingest("totally not a frame").ack.has_value());
    EXPECT_FALSE(reassembler.ingest("").ack.has_value());
    EXPECT_EQ(reassembler.stats().framesRejected, 2u);
    EXPECT_EQ(reassembler.approxMemoryBytes(), sizeof(Reassembler));  // no phone filed
    EXPECT_DOUBLE_EQ(reassembler.coverage("ghost"), 0.0);
}

// -- UploadAgent ---------------------------------------------------------------

struct AgentHarness {
    sim::Simulator simulator;
    Reassembler server;
    // Same destruction-order discipline as fleet::runCampaign's PhoneUnit:
    // the device (declared last, destroyed first) runs its power-down hooks
    // while the logger and agent are still alive.
    std::unique_ptr<logger::FailureLogger> loggerApp;
    std::unique_ptr<Channel> dataChannel;
    std::unique_ptr<Channel> ackChannel;
    std::unique_ptr<UploadAgent> agent;
    std::unique_ptr<phone::PhoneDevice> device;

    AgentHarness(ChannelConfig dataConfig, UploadPolicy policy,
                 std::uint64_t seed = 99) {
        phone::PhoneDevice::Config config;
        config.name = "uplink";
        config.seed = 17;
        device = std::make_unique<phone::PhoneDevice>(simulator, config);
        loggerApp = std::make_unique<logger::FailureLogger>(*device);
        dataChannel = std::make_unique<Channel>(simulator, std::move(dataConfig), seed);
        ackChannel =
            std::make_unique<Channel>(simulator, ChannelConfig::bluetooth(), seed + 1);
        agent = std::make_unique<UploadAgent>(*device, *loggerApp, *dataChannel,
                                              *ackChannel, policy, seed + 2);
        dataChannel->setReceiver([this](const std::string& bytes) {
            if (const auto ack = server.ingest(bytes).ack) {
                ackChannel->send(encodeAck(*ack));
            }
        });
    }
};

/// The server's copy of the harness phone's Log File, parsed by the
/// analysis pipeline.
analysis::LogDataset deliveredDataset(const AgentHarness& harness) {
    return analysis::LogDataset::build(std::vector<analysis::PhoneLog>{
        {"uplink", harness.server.reconstruct("uplink"),
         harness.server.coverage("uplink")}});
}

std::size_t deliveredMalformedLines(const AgentHarness& harness) {
    std::size_t malformed = 0;
    (void)logger::parseLogFile(harness.server.reconstruct("uplink"), &malformed);
    return malformed;
}

TEST(UploadAgent, DeliversCompleteLogOverLossyChannel) {
    ChannelConfig lossy;
    lossy.lossProb = 0.15;
    lossy.dupProb = 0.05;
    lossy.reorderProb = 0.15;
    AgentHarness harness{lossy, UploadPolicy{}};
    harness.device->powerOn();
    harness.simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(4));

    ASSERT_TRUE(harness.server.has("uplink"));
    const std::string delivered = harness.server.reconstruct("uplink");
    const std::string truth = harness.loggerApp->logFileContent();
    // Everything up to the last upload round made it, despite the loss.
    EXPECT_GE(delivered.size(), truth.size() / 2);
    EXPECT_TRUE(truth.rfind(delivered, 0) == 0 || delivered == truth)
        << "delivered content must be a prefix of the true log";
    EXPECT_GT(harness.agent->stats().framesSent, 0u);
    EXPECT_GT(harness.agent->stats().acksReceived, 0u);
    // A 15% lossy channel forces retransmissions eventually.
    EXPECT_GT(harness.agent->stats().rounds, 10u);
    // What arrived parses cleanly.
    const auto dataset = deliveredDataset(harness);
    EXPECT_GE(dataset.bootCount(), 1u);
    EXPECT_EQ(deliveredMalformedLines(harness), 0u);
}

TEST(UploadAgent, PhoneDeathMidCampaignLeavesPartialLogOnServer) {
    // The phone uploads for two days of a ten-day run, then drops off the
    // network for good (lost, bricked, study drop-out): nothing it sends
    // reaches the server again.  Everything delivered before the death
    // must survive and stay analyzable.
    ChannelConfig doomed = ChannelConfig::gprs();
    doomed.outages.push_back(
        OutageWindow{sim::TimePoint::origin() + sim::Duration::days(2),
                     sim::TimePoint::origin() + sim::Duration::days(11)});
    AgentHarness harness{doomed, UploadPolicy{}};
    harness.device->powerOn();
    harness.simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(10));

    ASSERT_TRUE(harness.server.has("uplink"));
    // A strict partial log: real content and a prefix of the phone's log,
    // but less than it accumulated over the remaining eight days.
    const std::string delivered = harness.server.reconstruct("uplink");
    const std::string& truth = harness.loggerApp->logFileContent();
    EXPECT_FALSE(delivered.empty());
    EXPECT_LT(delivered.size(), truth.size());
    EXPECT_TRUE(truth.starts_with(delivered));
    const auto dataset = deliveredDataset(harness);
    EXPECT_GE(dataset.bootCount(), 1u);
    EXPECT_EQ(deliveredMalformedLines(harness), 0u);
}

TEST(UploadAgent, RetriesDisabledDegradesGracefully) {
    ChannelConfig veryLossy;
    veryLossy.lossProb = 0.5;
    AgentHarness harness{veryLossy, UploadPolicy{.retriesEnabled = false}};
    harness.device->powerOn();
    harness.simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(6));

    // No retransmissions happen without retries...
    EXPECT_EQ(harness.agent->stats().retryBudgetExhausted, 0u);
    // ...but later rounds still re-offer unacked segments, so *some* data
    // arrives; the reconstruction parses cleanly regardless of what is
    // missing.
    if (harness.server.has("uplink")) {
        EXPECT_GE(deliveredDataset(harness).bootCount(), 0u);
    }
}

TEST(UploadAgent, UnreachableServerExhaustsRetryBudget) {
    ChannelConfig blackhole;
    blackhole.lossProb = 1.0;
    AgentHarness harness{blackhole, UploadPolicy{}};
    harness.device->powerOn();
    harness.simulator.runUntil(sim::TimePoint::origin() + sim::Duration::days(2));

    EXPECT_FALSE(harness.server.has("uplink"));
    EXPECT_GT(harness.agent->stats().retryBudgetExhausted, 0u);
    EXPECT_GT(harness.agent->stats().retransmits, 0u);
    EXPECT_EQ(harness.agent->stats().acksReceived, 0u);
}

// -- Fleet integration ---------------------------------------------------------

fleet::FleetConfig smallFleetConfig() {
    fleet::FleetConfig config;
    config.phoneCount = 6;
    config.campaign = sim::Duration::days(45);
    config.enrollmentWindow = sim::Duration::days(10);
    config.seed = 11;
    config.freezesPerHour *= 6.0;
    config.selfShutdownsPerHour *= 6.0;
    config.panicsPerHour *= 6.0;
    return config;
}

TEST(FleetTransport, LossyDefaultsDeliverNearlyAllRecords) {
    auto config = smallFleetConfig();
    ASSERT_TRUE(config.transport.enabled);
    ASSERT_GE(config.transport.dataChannel.lossProb, 0.05);
    const auto result = fleet::runCampaign(config);

    EXPECT_EQ(result.collectedLogs.size(), 6u);
    EXPECT_GT(result.transport.recordsInjected, 50u);
    EXPECT_GE(result.transport.deliveryRatio(), 0.98);
    EXPECT_GT(result.transport.framesSent, 0u);
    EXPECT_GT(result.transport.framesLost, 0u);  // the channel really is lossy
    EXPECT_GT(result.transport.deliveryLatency.total(), 0u);
}

TEST(FleetTransport, TransportDoesNotPerturbTheCampaign) {
    auto config = smallFleetConfig();
    config.transport.enabled = false;
    const auto ideal = fleet::runCampaign(config);
    config.transport.enabled = true;
    const auto withTransport = fleet::runCampaign(config);

    // The simulated phones and their logs are bit-identical: transport is
    // purely observational.
    ASSERT_EQ(ideal.logs.size(), withTransport.logs.size());
    for (std::size_t i = 0; i < ideal.logs.size(); ++i) {
        EXPECT_EQ(ideal.logs[i].logFileContent,
                  withTransport.logs[i].logFileContent);
    }
    EXPECT_EQ(ideal.panicsInjected, withTransport.panicsInjected);
    EXPECT_EQ(ideal.totalBoots, withTransport.totalBoots);
    EXPECT_TRUE(ideal.collectedLogs.empty());
    EXPECT_FALSE(ideal.transport.enabled);
}

TEST(FleetTransport, DeterministicAcrossRuns) {
    const auto a = fleet::runCampaign(smallFleetConfig());
    const auto b = fleet::runCampaign(smallFleetConfig());
    EXPECT_EQ(a.transport.framesSent, b.transport.framesSent);
    EXPECT_EQ(a.transport.retransmits, b.transport.retransmits);
    EXPECT_EQ(a.transport.bytesOnWire, b.transport.bytesOnWire);
    EXPECT_EQ(a.transport.recordsDelivered, b.transport.recordsDelivered);
    ASSERT_EQ(a.collectedLogs.size(), b.collectedLogs.size());
    for (std::size_t i = 0; i < a.collectedLogs.size(); ++i) {
        EXPECT_EQ(a.collectedLogs[i].logFileContent,
                  b.collectedLogs[i].logFileContent);
    }
}

TEST(FleetTransport, RetriesDisabledStillAnalyzesPartialLogs) {
    auto config = smallFleetConfig();
    config.transport.dataChannel.lossProb = 0.25;
    config.transport.ackChannel.lossProb = 0.25;
    config.transport.policy.retriesEnabled = false;
    const auto result = fleet::runCampaign(config);

    EXPECT_FALSE(result.transport.retriesEnabled);
    EXPECT_LT(result.transport.deliveryRatio(), 1.0);
    // The analysis pipeline still runs over whatever arrived.
    const auto dataset = analysis::LogDataset::build(result.collectedLogs);
    EXPECT_GT(dataset.bootCount(), 0u);
    // Coverage loss is recorded per phone for the report.
    double worst = 1.0;
    for (const auto& [phone, coverage] : result.transport.coverageByPhone) {
        worst = std::min(worst, coverage);
    }
    EXPECT_LE(worst, 1.0);
    const auto rendered = renderTransportReport(result.transport);
    EXPECT_NE(rendered.find("retries DISABLED"), std::string::npos);
}

TEST(FleetTransport, OutageWindowCausesCatchUpRetransmissions) {
    auto config = smallFleetConfig();
    const OutageWindow outage{sim::TimePoint::origin() + sim::Duration::days(20),
                              sim::TimePoint::origin() + sim::Duration::days(23)};
    config.transport.dataChannel.outages.push_back(outage);
    config.transport.ackChannel.outages.push_back(outage);
    const auto result = fleet::runCampaign(config);

    EXPECT_GT(result.transport.outageDrops, 0u);
    // Retries recover after the outage: delivery stays near-complete.
    EXPECT_GE(result.transport.deliveryRatio(), 0.97);
    EXPECT_GT(result.transport.retransmits, 0u);
}

}  // namespace
}  // namespace symfail::transport
