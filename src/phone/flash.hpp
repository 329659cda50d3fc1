// Persistent flash filesystem model.
//
// The logger's two files (the beats file and the consolidated Log File)
// live here and survive reboots and battery pulls, as flash storage does.
// Files are line-oriented append streams; the model supports the logger's
// one fragile spot — a battery pull can tear the final, in-flight line
// (exercised by the logger's failure-injection tests).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>

namespace symfail::phone {

/// Watches a FlashStore's mutations.  Provenance tracking hangs off this:
/// the byte offset at which each line lands is the record's identity for
/// the rest of the collection pipeline.  All callbacks default to no-ops;
/// `line` views are only valid during the call.
class FlashWriteObserver {
public:
    virtual ~FlashWriteObserver() = default;
    /// `line` was appended to `file` at byte `offset`; `length` includes
    /// the trailing '\n'.  Fires before any rotation triggered by the
    /// append.
    virtual void onAppend(std::string_view /*file*/, std::uint64_t /*offset*/,
                          std::uint32_t /*length*/, std::string_view /*line*/) {}
    /// `file` was truncated to `newSize` bytes by a torn write.
    virtual void onTear(std::string_view /*file*/, std::uint64_t /*newSize*/) {}
    /// Rotation (or replaceWithLine) dropped the first `cutBytes` of `file`.
    virtual void onRotate(std::string_view /*file*/, std::uint64_t /*cutBytes*/) {}
};

/// Decides, per write, whether the flash layer misbehaves.  The osfault
/// flash plane implements this; the store stays fault-free without one.
/// Consulted before the bytes land, so a verdict shapes what is stored:
///   - None: the write proceeds normally.
///   - Drop: a transient I/O error — the write is silently lost.  No
///     observer callback fires (the record was never persisted), which is
///     exactly how provenance expects an unwritten record to look.
///   - Torn: the write lands in full, then the tail is immediately torn
///     off (`keepBytes` of the line + '\n' survive) — a truncated flash
///     commit.  The append and tear observer callbacks both fire, so the
///     record lands in provenance's existing "torn" terminal bucket and
///     the conservation invariant holds.
class FlashFaultInjector {
public:
    enum class Kind : std::uint8_t { None, Drop, Torn };
    struct Verdict {
        Kind kind{Kind::None};
        /// For Torn: bytes of the line (incl. '\n') that survive.
        std::size_t keepBytes{0};
    };
    virtual ~FlashFaultInjector() = default;
    virtual Verdict onWrite(std::string_view file, std::string_view line) = 0;
    /// True when the next write to `file` may not proceed normally.
    [[nodiscard]] virtual bool armed(std::string_view file) const = 0;
};

/// A file's final line together with whether it is torn (no trailing
/// newline — the write never completed).
struct FlashTail {
    std::string line;
    bool torn{false};
};

/// Simple name -> append-only text file store.
class FlashStore {
public:
    /// Appends one line (a trailing newline is added).
    void appendLine(std::string_view file, std::string_view line);

    /// Replaces a file's content with a single line.  The beats file uses
    /// this: only its most recent event matters, and compacting it keeps a
    /// 14-month campaign's memory bounded.
    void replaceWithLine(std::string_view file, std::string_view line);

    [[nodiscard]] bool exists(std::string_view file) const;
    /// How many writes changed `file`'s stored bytes other than by
    /// appending to them: replaceWithLine, rotation and tearTail.  Bit rot
    /// (corruptByte) is not counted: it never moves a line break.  While
    /// the count holds and the file only grew, every byte read before is
    /// still there, at the same offset.
    [[nodiscard]] std::uint64_t rewrites(std::string_view file) const;
    /// A file's content.  Runs the read hook first, so a writer that
    /// defers its lines can write them before anyone reads.
    [[nodiscard]] const std::string& content(std::string_view file) const;
    /// Moves a file's content out, read hook first like content(); the
    /// file stays, empty.
    [[nodiscard]] std::string take(std::string_view file);
    /// Last line of the file, or empty if absent/empty.
    [[nodiscard]] std::string lastLine(std::string_view file) const;
    /// Last line plus torn-tail status.  `torn` is true when the file ends
    /// without a newline: the final write never completed.  Readers that
    /// care about measurement validity (the logger's boot classifier) use
    /// this instead of `lastLine`, which hides the distinction.
    [[nodiscard]] FlashTail readTail(std::string_view file) const;
    /// Last *complete* line (one terminated by '\n'), skipping a torn
    /// tail; empty if the file holds no complete line.
    [[nodiscard]] std::string lastCompleteLine(std::string_view file) const;

    /// Forgets every file.  Their rewrite counts start again at 0.
    void clear() { files_.clear(); }

    /// Per-file size cap: when an append pushes a file past it, the oldest
    /// half is dropped on a line boundary (log rotation, as phones do to
    /// bound flash use).
    static constexpr std::size_t kRotateLimitBytes = 8 * 1024 * 1024;

    /// Truncates the file by `bytes` from the end — models a torn write
    /// after an abrupt power loss.
    void tearTail(std::string_view file, std::size_t bytes);

    /// XORs `mask` into the byte at `offset` — models flash bit rot.
    /// Returns false (no-op) when the file or offset does not exist or the
    /// corruption would destroy line framing ('\n' bytes are left alone:
    /// retention failures flip cell bits, they do not invent page breaks).
    bool corruptByte(std::string_view file, std::size_t offset, std::uint8_t mask);

    [[nodiscard]] std::size_t fileCount() const { return files_.size(); }
    /// Approximate heap footprint of the store: file names and contents
    /// plus a per-file node estimate.  Derived from sizes only, so
    /// identical write sequences yield identical values (the resource
    /// accountant's determinism contract).
    [[nodiscard]] std::size_t approxMemoryBytes() const;

    /// Attaches a mutation observer (nullptr detaches).  Not owned.
    void setWriteObserver(FlashWriteObserver* observer) { observer_ = observer; }

    /// Attaches a fault injector consulted on every write (nullptr
    /// detaches).  Not owned.
    void setFaultInjector(FlashFaultInjector* injector) { injector_ = injector; }
    /// True when the next write to `file` may not proceed normally.
    [[nodiscard]] bool writeFaultArmed(std::string_view file) const {
        return injector_ != nullptr && injector_->armed(file);
    }

    /// Called with the file name before every read (content, lastLine,
    /// readTail, lastCompleteLine); nullptr detaches.
    using ReadHook = std::function<void(std::string_view file)>;
    void setReadHook(ReadHook hook) { readHook_ = std::move(hook); }

private:
    /// One line written through the injector's verdict: appended, or
    /// replacing the file's content.
    void write(std::string_view file, std::string_view line, bool replace);

    struct File {
        std::string text;
        std::uint64_t rewrites{0};
    };
    std::map<std::string, File, std::less<>> files_;
    FlashWriteObserver* observer_{nullptr};
    FlashFaultInjector* injector_{nullptr};
    ReadHook readHook_;
};

}  // namespace symfail::phone
