#include "transport/frame.hpp"

#include <array>
#include <charconv>

#include "crash/fields.hpp"

namespace symfail::transport {
namespace {

constexpr std::string_view kFrameMagic = "SEGv1";
constexpr std::string_view kAckMagic = "ACKv1";

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0][b] is the CRC register after one byte b,
/// and tables[k][b] that value pushed through k more zero bytes.
constexpr CrcTables makeCrcTables() {
    CrcTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        }
        tables[0][i] = c;
    }
    for (std::size_t k = 1; k < tables.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            const std::uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
        }
    }
    return tables;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t loadLe32(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
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

/// CRC of `phone|a|b` then `tail`: the fields every frame and ack covers.
/// The numbers are formatted in decimal, as the header writes them.
std::uint32_t fieldsCrc(std::string_view phone, std::uint32_t a, std::uint32_t b,
                        std::string_view tail) {
    char buf[24];  // "|" + 10 digits + "|" + 10 digits
    buf[0] = '|';
    char* end = std::to_chars(buf + 1, buf + 11, a).ptr;
    *end++ = '|';
    end = std::to_chars(end, buf + sizeof buf, b).ptr;
    return crc32(tail, crc32(std::string_view(buf, static_cast<std::size_t>(end - buf)),
                             crc32(phone)));
}

/// CRC input for a frame: every header field that matters, a newline,
/// then the payload.
std::uint32_t frameCrc(std::string_view phone, std::uint32_t seq, std::uint32_t segCount,
                       std::string_view payload) {
    return crc32(payload, fieldsCrc(phone, seq, segCount, "\n"));
}

std::uint32_t ackCrc(const Ack& ack) {
    return fieldsCrc(ack.phone, ack.seq, ack.payloadBytes, {});
}

/// Splits content[from, end) into segments and appends them to `spans`;
/// `from` is 0 or the offset of a span segmentSpans() found.
void splitSegments(std::string_view content, std::size_t from, std::size_t payloadBytes,
                   std::vector<SegmentSpan>& spans) {
    if (payloadBytes == 0) payloadBytes = 1;
    std::size_t open = from;  ///< Start of the open segment.
    const auto close = [&](std::size_t end) {
        spans.push_back({open, end - open});
        open = end;
    };
    for (std::size_t start = from; start < content.size();) {
        const std::size_t lineEnd = content.find('\n', start);
        const std::size_t stop =
            lineEnd == std::string_view::npos ? content.size() : lineEnd + 1;
        if (start != open && stop - open > payloadBytes) close(start);
        if (stop - open >= payloadBytes) close(stop);
        start = stop;
    }
    if (open != content.size()) close(content.size());
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t crc) {
    const auto& t = kCrcTables;
    const auto* p = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t n = data.size();
    crc = ~crc;
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = crc ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
              t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return ~crc;
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
    out += toHex(frameCrc(frame.phone, frame.seq, frame.segCount, frame.payload));
    out += '\n';
    out += frame.payload;
    return out;
}

std::optional<Frame> decodeFrame(std::string_view bytes) {
    const auto headerEnd = bytes.find('\n');
    if (headerEnd == std::string_view::npos) return std::nullopt;
    const auto fields = splitExact(bytes.substr(0, headerEnd), 6);
    if (!fields || (*fields)[0] != kFrameMagic) return std::nullopt;

    const std::string_view phone = (*fields)[1];
    const auto seq = crash::parseField<std::uint64_t>((*fields)[2]);
    const auto segCount = crash::parseField<std::uint64_t>((*fields)[3]);
    const auto payloadBytes = crash::parseField<std::uint64_t>((*fields)[4]);
    const auto crc = crash::parseField<std::uint32_t>((*fields)[5], 16);
    if (!seq || !segCount || !payloadBytes || !crc) return std::nullopt;
    if (*seq > 0xFFFFFFFFull || *segCount > 0xFFFFFFFFull) return std::nullopt;

    const std::string_view payload = bytes.substr(headerEnd + 1);
    if (payload.size() != *payloadBytes) return std::nullopt;  // truncated/spliced
    Frame frame;
    frame.seq = static_cast<std::uint32_t>(*seq);
    frame.segCount = static_cast<std::uint32_t>(*segCount);
    if (frameCrc(phone, frame.seq, frame.segCount, payload) != *crc) return std::nullopt;
    frame.phone = std::string{phone};
    frame.payload = std::string{payload};
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
    out += toHex(ackCrc(ack));
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
    if (ackCrc(ack) != *crc) return std::nullopt;
    return ack;
}

std::vector<SegmentSpan> segmentSpans(std::string_view content,
                                      std::size_t payloadBytes) {
    std::vector<SegmentSpan> spans;
    splitSegments(content, 0, payloadBytes, spans);
    return spans;
}

const std::vector<SegmentSpan>& SegmentSpanCache::update(std::string_view content,
                                                         std::uint64_t rewrites) {
    if (rewrites == rewrites_ && content.size() == size_) return spans_;
    std::size_t from = 0;
    if (rewrites == rewrites_ && content.size() > size_ && !spans_.empty()) {
        // Only appends since the last split: every segment before the last
        // is closed, and the last one may have grown.
        from = spans_.back().offset;
        spans_.pop_back();
    } else {
        spans_.clear();
    }
    splitSegments(content, from, payloadBytes_, spans_);
    size_ = content.size();
    rewrites_ = rewrites;
    return spans_;
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
