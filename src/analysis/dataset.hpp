// Typed view over collected logs.
//
// The analysis pipeline starts from serialized Log Files — one per phone,
// as the collection infrastructure delivers them — and parses them into
// the observation types the paper's analyses consume:
//   * shutdown observations (REBOOT/LOWBT boots, with off-duration),
//   * freeze observations (boots whose last heartbeat was ALIVE),
//   * panic observations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logger/records.hpp"
#include "simkernel/time.hpp"

namespace symfail::analysis {

/// One phone's collected Log File.
struct PhoneLog {
    std::string phoneName;
    std::string logFileContent;
    /// Fraction of the phone's Log File the collection path delivered
    /// (1.0 for an ideal handoff; below 1.0 when transport segments were
    /// permanently lost — the analysis then runs on a partial log).
    double coverage = 1.0;
};

/// A graceful shutdown observed across a boot pair.
struct ShutdownObservation {
    std::string phoneName;
    sim::TimePoint shutdownAt;  ///< last heartbeat (the REBOOT/LOWBT marker)
    sim::TimePoint bootAt;
    logger::PriorShutdown prior{logger::PriorShutdown::Reboot};
    [[nodiscard]] sim::Duration offDuration() const { return bootAt - shutdownAt; }
};

/// A freeze observed at boot (last heartbeat ALIVE -> battery pull).
struct FreezeObservation {
    std::string phoneName;
    /// Last ALIVE heartbeat: the freeze happened within one heartbeat
    /// period after this.
    sim::TimePoint lastAliveAt;
};

/// A recorded panic.
struct PanicObservation {
    std::string phoneName;
    logger::PanicRecord record;
};

/// A user-filed output-failure report.
struct UserReportObservation {
    std::string phoneName;
    logger::UserReportRecord record;
};

/// A structured crash dump (written alongside each panic record).
struct DumpObservation {
    std::string phoneName;
    crash::CrashDump dump;
};

/// Per-phone observation span (first to last record), for MTBF estimates.
struct PhoneSpan {
    std::string phoneName;
    sim::TimePoint first;
    sim::TimePoint last;
    [[nodiscard]] sim::Duration span() const { return last - first; }
};

/// The parsed campaign dataset.
class LogDataset {
public:
    /// Parses every phone's Log File.  Malformed lines are counted, not
    /// fatal (battery pulls tear writes).
    [[nodiscard]] static LogDataset build(const std::vector<PhoneLog>& logs);

    [[nodiscard]] const std::vector<ShutdownObservation>& shutdowns() const {
        return shutdowns_;
    }
    [[nodiscard]] const std::vector<FreezeObservation>& freezes() const {
        return freezes_;
    }
    [[nodiscard]] const std::vector<PanicObservation>& panics() const {
        return panics_;
    }
    [[nodiscard]] const std::vector<UserReportObservation>& userReports() const {
        return userReports_;
    }
    [[nodiscard]] const std::vector<DumpObservation>& dumps() const {
        return dumps_;
    }
    [[nodiscard]] const std::vector<PhoneSpan>& spans() const { return spans_; }
    [[nodiscard]] std::string versionOf(const std::string& phoneName) const;
    /// Collection coverage per phone (fraction of the Log File delivered);
    /// phones absent from the map were collected in full.
    [[nodiscard]] const std::map<std::string, double>& coverageLoss() const {
        return coverageLoss_;
    }
    [[nodiscard]] std::size_t bootCount() const { return boots_; }

    /// Total observed wall-clock phone-time (sum of spans).
    [[nodiscard]] sim::Duration totalObservedTime() const;

    /// Approximate heap footprint of the parsed observation vectors;
    /// deterministic for identical input logs.
    [[nodiscard]] std::size_t approxMemoryBytes() const;

private:
    std::vector<ShutdownObservation> shutdowns_;
    std::vector<FreezeObservation> freezes_;
    std::vector<PanicObservation> panics_;
    std::vector<UserReportObservation> userReports_;
    std::vector<DumpObservation> dumps_;
    std::vector<PhoneSpan> spans_;
    std::map<std::string, std::string> versions_;
    std::map<std::string, double> coverageLoss_;
    std::size_t boots_{0};
};

}  // namespace symfail::analysis
