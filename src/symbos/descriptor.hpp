// Bounded descriptor model (Symbian's 16-bit TBuf/TDes family).
//
// Descriptors are Symbian's bounds-aware string/buffer abstraction: a
// current length plus a fixed maximum.  Misuse does not corrupt memory —
// it panics:
//   * position arguments out of bounds (Left/Right/Mid/Insert/Delete/
//     Replace)                      -> USER 10
//   * growing past the maximum length (Copy/Append/Insert/Replace/Fill/
//     SetLength/ZeroTerminate)      -> USER 11
// The study found USER 11 among the most frequent panics (5.81%), caused
// by copy operations exceeding a descriptor's maximum length.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace symfail::symbos {

class ExecContext;

/// A modifiable, bounded descriptor (TBuf-like).
class Descriptor {
public:
    /// Creates an empty descriptor with the given maximum length.
    explicit Descriptor(std::size_t maxLength) : max_{maxLength} {}

    [[nodiscard]] std::size_t length() const { return data_.size(); }
    [[nodiscard]] std::string_view view() const { return data_; }

    /// Replaces the content (TDes::Copy); overflow panics USER 11.
    void copy(const ExecContext& ctx, std::string_view s);
    /// Appends (TDes::Append); overflow panics USER 11.
    void append(const ExecContext& ctx, std::string_view s);
    /// Inserts at `pos` (TDes::Insert); bad `pos` panics USER 10, overflow
    /// panics USER 11.
    void insert(const ExecContext& ctx, std::size_t pos, std::string_view s);
    /// Deletes `n` characters at `pos` (TDes::Delete); bad `pos` panics
    /// USER 10.  `n` is clamped to the available tail, as in Symbian.
    void erase(const ExecContext& ctx, std::size_t pos, std::size_t n);
    /// Replaces `n` characters at `pos` (TDes::Replace); bad `pos` or
    /// `pos + n` panics USER 10, overflow panics USER 11.
    void replace(const ExecContext& ctx, std::size_t pos, std::size_t n,
                 std::string_view s);
    /// Fills the descriptor to `n` copies of `c` (TDes::Fill + SetLength);
    /// overflow panics USER 11.
    void fill(const ExecContext& ctx, char c, std::size_t n);
    /// Sets the length (TDes::SetLength); beyond max panics USER 11.
    void setLength(const ExecContext& ctx, std::size_t n);

    /// Leftmost `n` characters (TDesC::Left); n > length panics USER 10.
    [[nodiscard]] std::string left(const ExecContext& ctx, std::size_t n) const;
    /// Rightmost `n` characters (TDesC::Right); n > length panics USER 10.
    [[nodiscard]] std::string right(const ExecContext& ctx, std::size_t n) const;
    /// `n` characters from `pos` (TDesC::Mid); out-of-bounds panics USER 10.
    [[nodiscard]] std::string mid(const ExecContext& ctx, std::size_t pos,
                                  std::size_t n) const;

private:
    void requireFits(const ExecContext& ctx, std::size_t newLength) const;
    void requirePos(const ExecContext& ctx, std::size_t pos, std::size_t limit) const;

    std::string data_;
    std::size_t max_;
};

}  // namespace symfail::symbos
