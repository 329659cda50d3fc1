#include "analysis/dataset.hpp"

namespace symfail::analysis {

LogDataset LogDataset::build(const std::vector<PhoneLog>& logs) {
    LogDataset ds;
    for (const PhoneLog& log : logs) {
        const auto entries = logger::parseLogFile(log.logFileContent);
        if (log.coverage < 1.0) ds.coverageLoss_[log.phoneName] = log.coverage;
        if (entries.empty()) continue;

        bool haveFirst = false;
        sim::TimePoint first{};
        sim::TimePoint last{};
        for (const auto& entry : entries) {
            sim::TimePoint t{};
            switch (entry.type) {
                case logger::LogFileEntry::Type::Panic: t = entry.panic.time; break;
                case logger::LogFileEntry::Type::Boot: t = entry.boot.time; break;
                case logger::LogFileEntry::Type::UserReport:
                    t = entry.userReport.time;
                    break;
                case logger::LogFileEntry::Type::Meta: t = entry.meta.time; break;
                case logger::LogFileEntry::Type::Dump: t = entry.dump.time; break;
            }
            if (!haveFirst || t < first) first = t;
            if (!haveFirst || t > last) last = t;
            haveFirst = true;

            if (entry.type == logger::LogFileEntry::Type::Meta) {
                ds.versions_[log.phoneName] = entry.meta.symbianVersion;
                continue;
            }
            if (entry.type == logger::LogFileEntry::Type::Panic) {
                ds.panics_.push_back(PanicObservation{log.phoneName, entry.panic});
                continue;
            }
            if (entry.type == logger::LogFileEntry::Type::UserReport) {
                ds.userReports_.push_back(
                    UserReportObservation{log.phoneName, entry.userReport});
                continue;
            }
            if (entry.type == logger::LogFileEntry::Type::Dump) {
                ds.dumps_.push_back(DumpObservation{log.phoneName, entry.dump});
                continue;
            }
            ++ds.boots_;
            switch (entry.boot.prior) {
                case logger::PriorShutdown::None:
                    break;
                case logger::PriorShutdown::Freeze:
                    ds.freezes_.push_back(
                        FreezeObservation{log.phoneName, entry.boot.lastBeatAt});
                    break;
                case logger::PriorShutdown::Reboot:
                case logger::PriorShutdown::LowBattery:
                    ds.shutdowns_.push_back(
                        ShutdownObservation{log.phoneName, entry.boot.lastBeatAt,
                                            entry.boot.time, entry.boot.prior});
                    break;
                case logger::PriorShutdown::ManualOff:
                    break;
            }
        }
        ds.spans_.push_back(PhoneSpan{log.phoneName, first, last});
    }
    return ds;
}

std::string LogDataset::versionOf(const std::string& phoneName) const {
    const auto it = versions_.find(phoneName);
    return it == versions_.end() ? "unknown" : it->second;
}

sim::Duration LogDataset::totalObservedTime() const {
    sim::Duration total{};
    for (const auto& span : spans_) total += span.span();
    return total;
}

std::size_t LogDataset::approxMemoryBytes() const {
    constexpr std::size_t mapNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    total += shutdowns_.capacity() * sizeof(ShutdownObservation);
    for (const auto& obs : shutdowns_) total += obs.phoneName.size();
    total += freezes_.capacity() * sizeof(FreezeObservation);
    for (const auto& obs : freezes_) total += obs.phoneName.size();
    total += panics_.capacity() * sizeof(PanicObservation);
    for (const auto& obs : panics_) {
        total += obs.phoneName.size();
        for (const auto& app : obs.record.runningApps) {
            total += app.size() + sizeof(std::string);
        }
    }
    total += userReports_.capacity() * sizeof(UserReportObservation);
    for (const auto& obs : userReports_) {
        total += obs.phoneName.size() + obs.record.symptom.size();
    }
    total += dumps_.capacity() * sizeof(DumpObservation);
    for (const auto& obs : dumps_) {
        total += obs.phoneName.size() + obs.dump.processName.size();
        for (const auto& app : obs.dump.runningApps) {
            total += app.size() + sizeof(std::string);
        }
        for (const auto& frame : obs.dump.frames) {
            total += frame.size() + sizeof(std::string);
        }
    }
    total += spans_.capacity() * sizeof(PhoneSpan);
    for (const auto& span : spans_) total += span.phoneName.size();
    for (const auto& [phone, version] : versions_) {
        total += phone.size() + version.size() + 2 * sizeof(std::string) + mapNode;
    }
    for (const auto& entry : coverageLoss_) {
        total += entry.first.size() + sizeof(std::string) + sizeof(double) + mapNode;
    }
    return total;
}

}  // namespace symfail::analysis
