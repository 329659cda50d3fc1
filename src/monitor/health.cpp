#include "monitor/health.hpp"

#include <algorithm>
#include <cmath>

namespace symfail::monitor {
namespace {

/// Inserts keeping the (almost always already-sorted) deque time-ordered;
/// revealed-event times can trail the watermark by up to one heartbeat
/// period, so the slot is never far from the back.
void insertSorted(std::deque<sim::TimePoint>& events, sim::TimePoint t) {
    events.push_back(t);
    for (std::size_t i = events.size() - 1; i > 0 && events[i - 1] > events[i]; --i) {
        std::swap(events[i - 1], events[i]);
    }
}

void trimBefore(std::deque<sim::TimePoint>& events, sim::TimePoint cutoff) {
    while (!events.empty() && events.front() <= cutoff) events.pop_front();
}

}  // namespace

HealthEngine::HealthEngine(double selfShutdownThresholdSeconds,
                           sim::Duration heartbeatPeriod)
    : selfShutdownThresholdSeconds_{selfShutdownThresholdSeconds},
      heartbeatPeriod_{heartbeatPeriod} {}

sim::TimePoint HealthEngine::windowCutoff(sim::TimePoint now) const {
    return now - kRateWindow;
}

void HealthEngine::addHl(PhoneState& state, sim::TimePoint time) {
    // HL reveal order follows event order per phone, so this append keeps
    // the list time-sorted (matching the batch pipeline's sort).
    auto it = state.hls.end();
    while (it != state.hls.begin() && std::prev(it)->time > time) --it;
    state.hls.insert(it, HlEvent{time, false});
}

void HealthEngine::feedPanic(PhoneState& state, sim::TimePoint time) {
    if (state.burstLen == 0 ||
        (time - state.prevPanicAt).asSecondsF() <= analysis::kBurstGapSeconds) {
        ++state.burstLen;
    } else {
        closeBurst(state);
        state.burstLen = 1;
    }
    state.prevPanicAt = time;
}

void HealthEngine::closeBurst(PhoneState& state) {
    if (state.burstLen == 0) return;
    bursts_.add(static_cast<std::int64_t>(state.burstLen));
    if (state.burstLen >= 2) {
        ++multiBursts_;
        insertSorted(windowMultiBursts_, state.prevPanicAt);
    }
    state.burstLen = 0;
}

void HealthEngine::resolvePanic(PhoneState& state, sim::TimePoint panicAt) {
    // Mirrors analysis::coalesce: nearest HL event within the window wins,
    // later equal-gap events replacing earlier ones.
    double best = analysis::kCoalescenceWindowSeconds;
    std::size_t bestIdx = state.hls.size();
    for (std::size_t i = 0; i < state.hls.size(); ++i) {
        const double gap = std::abs((state.hls[i].time - panicAt).asSecondsF());
        if (gap <= best) {
            best = gap;
            bestIdx = i;
        }
    }
    if (bestIdx < state.hls.size()) {
        ++relatedCount_;
        if (!state.hls[bestIdx].matched) {
            state.hls[bestIdx].matched = true;
            ++hlMatched_;
        }
    }
    ++panicsResolved_;
}

void HealthEngine::resolveReady(PhoneState& state) {
    // A pending panic is safe to resolve once no future record of this
    // phone can reveal an HL event inside its coalescence window: an
    // unrevealed HL is later than watermark - heartbeatPeriod.
    const auto window = sim::Duration::fromSecondsF(analysis::kCoalescenceWindowSeconds);
    while (!state.pendingPanics.empty() &&
           state.watermark > state.pendingPanics.front() + window + heartbeatPeriod_) {
        resolvePanic(state, state.pendingPanics.front());
        state.pendingPanics.pop_front();
    }
}

void HealthEngine::onRecord(const std::string& phone,
                            const logger::LogFileEntry& entry) {
    PhoneState& state = phones_[phone];
    sim::TimePoint t{};
    switch (entry.type) {
        case logger::LogFileEntry::Type::Panic: t = entry.panic.time; break;
        case logger::LogFileEntry::Type::Boot: t = entry.boot.time; break;
        case logger::LogFileEntry::Type::UserReport: t = entry.userReport.time; break;
        case logger::LogFileEntry::Type::Meta: t = entry.meta.time; break;
        case logger::LogFileEntry::Type::Dump: t = entry.dump.time; break;
    }
    if (!state.heard) {
        state.heard = true;
        state.firstRecordAt = t;
        state.watermark = t;
    }
    state.watermark = std::max(state.watermark, t);

    switch (entry.type) {
        case logger::LogFileEntry::Type::Meta:
            break;
        case logger::LogFileEntry::Type::UserReport:
            ++totals_.userReports;
            break;
        case logger::LogFileEntry::Type::Dump:
            // Dumps feed the family-scoped windowed counts only; the
            // paired PANIC record carries the failure semantics, so the
            // exactness contract with the batch pipeline is untouched.
            ++totals_.dumps;
            insertSorted(
                windowFamilies_[crash::familyIdFor(crash::signatureOf(entry.dump))],
                t);
            break;
        case logger::LogFileEntry::Type::Panic: {
            ++totals_.panics;
            insertSorted(state.windowPanics, t);
            feedPanic(state, t);
            state.pendingPanics.push_back(t);
            break;
        }
        case logger::LogFileEntry::Type::Boot: {
            ++totals_.boots;
            insertSorted(state.windowBoots, t);
            const auto& boot = entry.boot;
            switch (boot.prior) {
                case logger::PriorShutdown::None:
                    break;
                case logger::PriorShutdown::Freeze:
                    ++totals_.freezes;
                    insertSorted(state.windowFreezes, boot.lastBeatAt);
                    addHl(state, boot.lastBeatAt);
                    break;
                case logger::PriorShutdown::Reboot: {
                    // The paper's discriminator: off-durations under the
                    // threshold are self-shutdowns, the rest deliberate.
                    const double off = (boot.time - boot.lastBeatAt).asSecondsF();
                    if (off < selfShutdownThresholdSeconds_) {
                        ++totals_.selfShutdowns;
                        insertSorted(state.windowSelf, boot.lastBeatAt);
                        addHl(state, boot.lastBeatAt);
                    } else {
                        ++totals_.userShutdowns;
                    }
                    break;
                }
                case logger::PriorShutdown::LowBattery:
                    ++totals_.lowBatteryShutdowns;
                    break;
                case logger::PriorShutdown::ManualOff:
                    ++totals_.manualOffBoots;
                    break;
            }
            break;
        }
    }
    resolveReady(state);
}

void HealthEngine::trimTo(sim::TimePoint now) {
    const auto cutoff = windowCutoff(now);
    for (auto& [name, state] : phones_) {
        trimBefore(state.windowFreezes, cutoff);
        trimBefore(state.windowSelf, cutoff);
        trimBefore(state.windowBoots, cutoff);
        trimBefore(state.windowPanics, cutoff);
    }
    trimBefore(windowMultiBursts_, cutoff);
    for (auto it = windowFamilies_.begin(); it != windowFamilies_.end();) {
        trimBefore(it->second, cutoff);
        it = it->second.empty() ? windowFamilies_.erase(it) : std::next(it);
    }
}

void HealthEngine::finalize() {
    if (finalized_) return;
    finalized_ = true;
    for (auto& [name, state] : phones_) {
        while (!state.pendingPanics.empty()) {
            resolvePanic(state, state.pendingPanics.front());
            state.pendingPanics.pop_front();
        }
        closeBurst(state);
    }
}

WindowStats HealthEngine::windowStats(sim::TimePoint now) const {
    WindowStats stats;
    const auto cutoff = windowCutoff(now);
    // Laplace trend inputs: each windowed failure's relative position in
    // its phone's observed slice of the window.
    double positionSum = 0.0;
    std::uint64_t positioned = 0;
    for (const auto& [name, state] : phones_) {
        stats.freezes += state.windowFreezes.size();
        stats.selfShutdowns += state.windowSelf.size();
        stats.reboots += state.windowBoots.size();
        stats.panics += state.windowPanics.size();
        if (state.heard) {
            const auto lo = std::max(state.firstRecordAt, cutoff);
            const auto hi = std::min(state.watermark, now);
            if (hi > lo) {
                stats.observedHours += (hi - lo).asHoursF();
                const double span = (hi - lo).asSecondsF();
                const auto position = [&](sim::TimePoint t) {
                    const double v = (t - lo).asSecondsF() / span;
                    positionSum += std::clamp(v, 0.0, 1.0);
                    ++positioned;
                };
                for (const auto t : state.windowFreezes) position(t);
                for (const auto t : state.windowSelf) position(t);
            }
        }
    }
    stats.multiBursts = windowMultiBursts_.size();
    for (const auto& [familyId, times] : windowFamilies_) {
        if (times.empty()) continue;
        ++stats.crashFamilies;
        stats.dumps += times.size();
        // The map iterates in id order, so ties keep the smaller id —
        // deterministic.
        if (times.size() > stats.topFamilyDumps) {
            stats.topFamilyDumps = times.size();
            stats.topFamilyId = familyId;
        }
    }
    const std::uint64_t failures = stats.freezes + stats.selfShutdowns;
    stats.mtbfAnyHours = failures == 0
                             ? 0.0
                             : stats.observedHours / static_cast<double>(failures);
    stats.failureRatePerKiloHour =
        stats.observedHours <= 0.0
            ? 0.0
            : 1000.0 * static_cast<double>(failures) / stats.observedHours;
    if (positioned > 0) {
        const double n = static_cast<double>(positioned);
        // Laplace trend: under a constant rate the positions are U(0,1),
        // so the standardized mean is ~N(0,1).
        stats.laplaceTrend =
            (positionSum - n / 2.0) / std::sqrt(n / 12.0);
        // Linear intensity matched to (count, mean position): the slope
        // factor gamma in [-2, 2] keeps the fitted rate nonnegative
        // inside the window; integrating the extrapolation over the next
        // window-length horizon gives n * (1 + gamma).
        const double gamma =
            std::clamp(12.0 * (positionSum / n - 0.5), -2.0, 2.0);
        stats.forecastNextWindowFailures = std::max(0.0, n * (1.0 + gamma));
    }
    return stats;
}

CoalescenceCounts HealthEngine::coalescence() const {
    CoalescenceCounts counts;
    counts.panicsResolved = panicsResolved_;
    counts.relatedCount = relatedCount_;
    counts.hlWithPanic = hlMatched_;
    for (const auto& [name, state] : phones_) {
        counts.pendingPanics += state.pendingPanics.size();
        counts.hlTotal += state.hls.size();
    }
    return counts;
}

std::size_t HealthEngine::approxMemoryBytes() const {
    constexpr std::size_t mapNode = 3 * sizeof(void*);
    std::size_t total = sizeof *this;
    for (const auto& [phone, state] : phones_) {
        total += phone.size() + sizeof(std::string) + sizeof(PhoneState) + mapNode;
        total += state.hls.capacity() * sizeof(HlEvent);
        total += state.pendingPanics.size() * sizeof(sim::TimePoint);
        total += (state.windowFreezes.size() + state.windowSelf.size() +
                  state.windowBoots.size() + state.windowPanics.size()) *
                 sizeof(sim::TimePoint);
    }
    total += windowMultiBursts_.size() * sizeof(sim::TimePoint);
    for (const auto& [family, window] : windowFamilies_) {
        total += family.size() + sizeof(std::string) + mapNode +
                 window.size() * sizeof(sim::TimePoint);
    }
    return total;
}

}  // namespace symfail::monitor
