#include "transport/frame.hpp"

#include <array>
#include <charconv>

#include "crash/fields.hpp"

namespace symfail::transport {
namespace {

constexpr std::string_view kFrameMagic = "SEGv1";
constexpr std::string_view kAckMagic = "ACKv1";

std::array<std::uint32_t, 256> makeCrcTable() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        }
        table[i] = c;
    }
    return table;
}

std::string toHex(std::uint32_t value) {
    char buf[9];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value, 16);
    (void)ec;
    return std::string(buf, ptr);
}

/// Splits a header into exactly `n` '|'-separated fields; nullopt when the
/// field count is off (damaged delimiter, spliced frames).
std::optional<std::vector<std::string_view>> splitExact(std::string_view header,
                                                        std::size_t n) {
    auto fields = crash::splitFields(header, '|');
    if (fields.size() != n) return std::nullopt;
    return fields;
}

/// CRC input for a frame: every header field that matters, then payload.
std::string crcInputFrame(const Frame& frame) {
    std::string input = frame.phone;
    input += '|';
    input += std::to_string(frame.seq);
    input += '|';
    input += std::to_string(frame.segCount);
    input += '\n';
    input += frame.payload;
    return input;
}

std::string crcInputAck(const Ack& ack) {
    std::string input = ack.phone;
    input += '|';
    input += std::to_string(ack.seq);
    input += '|';
    input += std::to_string(ack.payloadBytes);
    return input;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
    static const auto table = makeCrcTable();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const char ch : data) {
        crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
    }
    return crc ^ 0xFFFFFFFFu;
}

std::string encodeFrame(const Frame& frame) {
    std::string out{kFrameMagic};
    out += '|';
    out += frame.phone;
    out += '|';
    out += std::to_string(frame.seq);
    out += '|';
    out += std::to_string(frame.segCount);
    out += '|';
    out += std::to_string(frame.payload.size());
    out += '|';
    out += toHex(crc32(crcInputFrame(frame)));
    out += '\n';
    out += frame.payload;
    return out;
}

std::optional<Frame> decodeFrame(std::string_view bytes) {
    const auto headerEnd = bytes.find('\n');
    if (headerEnd == std::string_view::npos) return std::nullopt;
    const auto fields = splitExact(bytes.substr(0, headerEnd), 6);
    if (!fields || (*fields)[0] != kFrameMagic) return std::nullopt;

    Frame frame;
    frame.phone = std::string{(*fields)[1]};
    const auto seq = crash::parseField<std::uint64_t>((*fields)[2]);
    const auto segCount = crash::parseField<std::uint64_t>((*fields)[3]);
    const auto payloadBytes = crash::parseField<std::uint64_t>((*fields)[4]);
    const auto crc = crash::parseField<std::uint32_t>((*fields)[5], 16);
    if (!seq || !segCount || !payloadBytes || !crc) return std::nullopt;
    if (*seq > 0xFFFFFFFFull || *segCount > 0xFFFFFFFFull) return std::nullopt;
    frame.seq = static_cast<std::uint32_t>(*seq);
    frame.segCount = static_cast<std::uint32_t>(*segCount);

    const std::string_view payload = bytes.substr(headerEnd + 1);
    if (payload.size() != *payloadBytes) return std::nullopt;  // truncated/spliced
    frame.payload = std::string{payload};
    if (crc32(crcInputFrame(frame)) != *crc) return std::nullopt;
    return frame;
}

std::optional<FrameHeader> parseFrameHeader(std::string_view bytes) {
    const auto headerEnd = bytes.find('\n');
    if (headerEnd == std::string_view::npos) return std::nullopt;
    const auto fields = splitExact(bytes.substr(0, headerEnd), 6);
    if (!fields || (*fields)[0] != kFrameMagic) return std::nullopt;
    const auto seq = crash::parseField<std::uint64_t>((*fields)[2]);
    const auto payloadBytes = crash::parseField<std::uint64_t>((*fields)[4]);
    if (!seq || !payloadBytes || *seq > 0xFFFFFFFFull) return std::nullopt;
    FrameHeader header;
    header.phone = (*fields)[1];
    header.seq = static_cast<std::uint32_t>(*seq);
    header.payloadBytes = *payloadBytes;
    return header;
}

std::string encodeAck(const Ack& ack) {
    std::string out{kAckMagic};
    out += '|';
    out += ack.phone;
    out += '|';
    out += std::to_string(ack.seq);
    out += '|';
    out += std::to_string(ack.payloadBytes);
    out += '|';
    out += toHex(crc32(crcInputAck(ack)));
    return out;
}

std::optional<Ack> decodeAck(std::string_view bytes) {
    const auto fields = splitExact(bytes, 5);
    if (!fields || (*fields)[0] != kAckMagic) return std::nullopt;
    Ack ack;
    ack.phone = std::string{(*fields)[1]};
    const auto seq = crash::parseField<std::uint64_t>((*fields)[2]);
    const auto payloadBytes = crash::parseField<std::uint64_t>((*fields)[3]);
    const auto crc = crash::parseField<std::uint32_t>((*fields)[4], 16);
    if (!seq || !payloadBytes || !crc) return std::nullopt;
    if (*seq > 0xFFFFFFFFull || *payloadBytes > 0xFFFFFFFFull) return std::nullopt;
    ack.seq = static_cast<std::uint32_t>(*seq);
    ack.payloadBytes = static_cast<std::uint32_t>(*payloadBytes);
    if (crc32(crcInputAck(ack)) != *crc) return std::nullopt;
    return ack;
}

std::vector<SegmentSpan> segmentSpans(std::string_view content,
                                      std::size_t payloadBytes) {
    if (payloadBytes == 0) payloadBytes = 1;
    std::vector<SegmentSpan> spans;
    std::size_t open = 0;  ///< Start of the open segment.
    const auto close = [&](std::size_t end) {
        spans.push_back({open, end - open});
        open = end;
    };
    for (std::size_t start = 0; start < content.size();) {
        const std::size_t lineEnd = content.find('\n', start);
        const std::size_t stop =
            lineEnd == std::string_view::npos ? content.size() : lineEnd + 1;
        if (start != open && stop - open > payloadBytes) close(start);
        if (stop - open >= payloadBytes) close(stop);
        start = stop;
    }
    if (open != content.size()) close(content.size());
    return spans;
}

std::vector<Frame> chunkLogContent(const std::string& phone, std::string_view content,
                                   std::size_t payloadBytes) {
    const std::vector<SegmentSpan> spans = segmentSpans(content, payloadBytes);
    std::vector<Frame> frames(spans.size());
    for (std::size_t seq = 0; seq < spans.size(); ++seq) {
        frames[seq].phone = phone;
        frames[seq].seq = static_cast<std::uint32_t>(seq);
        frames[seq].segCount = static_cast<std::uint32_t>(spans.size());
        frames[seq].payload = content.substr(spans[seq].offset, spans[seq].length);
    }
    return frames;
}

}  // namespace symfail::transport
