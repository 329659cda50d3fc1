// Parameter sweep grids.
//
// A Grid is the Cartesian product of per-parameter value lists ("axes")
// over the campaign knobs worth sweeping: fleet size, campaign length,
// transport loss/dup/reorder and outage windows, the logger heartbeat
// period, the self-shutdown discrimination threshold and the four
// OS-interface fault-plane rates.  Each point of the product is a Cell —
// one fully concrete campaign configuration that the experiment Runner
// replicates N times with derived seeds.
//
// `axes()` defines each knob once: its grid key, its CLI flag, its bounds
// and the Cell member it sets.  The grid reader, the sweep JSON writer
// and the CLI's campaign flags all read that table.
//
// Grids load from a small JSON file (`symfail sweep --grid FILE.json`):
// one object whose keys are axis names and whose values are a number or
// a non-empty array of numbers, e.g.
//
//   { "phones": [5, 10], "days": 60, "loss_pct": [0, 5, 20] }
//
// Unknown keys and empty lists are rejected loudly — a typo must not
// silently sweep the default instead of the intended axis.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/study.hpp"

namespace symfail::experiment {

/// One concrete point of the sweep: every swept parameter pinned.
struct Cell {
    int phones{5};
    long long days{60};
    double lossPct{5.0};     ///< Data-channel frame loss, percent.
    double dupPct{2.0};      ///< Frame duplication, percent.
    double reorderPct{10.0}; ///< Frame reordering, percent.
    long long outageDay{-1}; ///< First day of a transport outage; -1: none.
    long long outageDays{3}; ///< Outage length, days.
    double heartbeatSeconds{60.0};
    double selfShutdownThresholdSeconds{360.0};
    // OS-interface fault-plane axes.  All default to zero (no plane
    // attached), which keeps labels and campaign output identical to
    // pre-osfault grids.
    double flashFaultPerKHour{0.0};   ///< Flash-plane faults per 1000 h.
    double memPressurePerKHour{0.0};  ///< Memory-pressure episodes per 1000 h.
    double clockSkewPpm{0.0};         ///< Device-clock skew, parts per million.
    double radioFaultPerKHour{0.0};   ///< Radio-plane faults per 1000 h.

    /// Stable human-readable identity, e.g.
    /// "phones=5 days=60 loss=5 dup=2 reorder=10 hb=60 thresh=360".
    /// Osfault axes append only when nonzero, so old labels are stable.
    [[nodiscard]] std::string label() const;

    /// Materializes the study configuration for one trial of this cell.
    [[nodiscard]] core::StudyConfig toStudyConfig(std::uint64_t seed) const;
};

/// The values a numeric knob accepts: [lo, hi], and only whole numbers
/// when `integer`.
struct Bounds {
    double lo;
    double hi;
    bool integer{false};

    /// Returns `value` when it is within bounds; otherwise throws
    /// std::runtime_error naming `name` (a grid key or a CLI flag).
    double check(std::string_view name, double value) const;
};

/// Reads a whole token as a decimal number: digits, signs, '.', 'e' and
/// 'E' only (no hex, nan or inf), and a finite value.  nullopt otherwise.
/// Grid files and CLI flags both read numbers through it.
[[nodiscard]] std::optional<double> parseNumber(std::string_view token);

/// One campaign axis: a Cell member that a grid key and, for most axes, a
/// CLI flag set.
struct Axis {
    std::string_view key;   ///< Grid key, also the sweep JSON `params` key.
    std::string_view flag;  ///< CLI flag; empty when the axis has none.
    Bounds bounds;
    /// Enters the sweep JSON `params` only when nonzero, as in `Cell::label`.
    bool omitWhenZero;
    std::variant<int Cell::*, long long Cell::*, double Cell::*> member;

    [[nodiscard]] double get(const Cell& cell) const;
    void set(Cell& cell, double value) const;
};

/// Every axis, in canonical order: grid cells vary the first slowest, and
/// the sweep JSON `params` list them in this order.
[[nodiscard]] std::span<const Axis> axes();

/// The axis whose grid key is `key`; throws std::runtime_error if none.
[[nodiscard]] const Axis& axis(std::string_view key);

/// The sweep grid: an ordered list of cells.
class Grid {
public:
    /// A single cell with the given defaults (the no-grid-file case).
    [[nodiscard]] static Grid single(const Cell& cell);

    /// Parses the JSON schema described above and expands it into cells:
    /// the Cartesian product over `axes()`, in their order.  Axes the file
    /// leaves out take their value from `defaults`.  Throws
    /// std::runtime_error with a position-annotated message on malformed
    /// input, and on unknown keys, empty value lists and out-of-bounds
    /// values.
    [[nodiscard]] static Grid parse(const std::string& json, const Cell& defaults);

    /// `parse` over a file's contents.
    [[nodiscard]] static Grid load(const std::string& path, const Cell& defaults);

    [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
    [[nodiscard]] std::size_t size() const { return cells_.size(); }

private:
    std::vector<Cell> cells_;
};

}  // namespace symfail::experiment
