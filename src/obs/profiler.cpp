#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "obs/metrics.hpp"

namespace symfail::obs {

namespace {

std::string_view bucketKey(const char* category) {
    return (category != nullptr && *category != '\0') ? category : "uncategorized";
}

double steadySeconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

void CampaignProfiler::setSamplingStride(std::uint64_t stride) {
    stride_ = stride == 0 ? 1 : stride;
    strideCursor_ = 0;
}

bool CampaignProfiler::sampleThisEvent() {
    const bool sample = strideCursor_ == 0;
    if (++strideCursor_ >= stride_) strideCursor_ = 0;
    return sample;
}

void CampaignProfiler::noteEvent(const char* category, double hostSeconds,
                                 std::size_t queueDepth) {
    const std::string_view key = bucketKey(category);
    const auto it = categories_.find(key);
    Bucket& bucket =
        it != categories_.end() ? it->second : categories_[std::string{key}];
    ++bucket.events;
    bucket.hostSeconds += hostSeconds;
    ++events_;
    ++sampledEvents_;
    hostSeconds_ += hostSeconds;
    queueWatermark_ = std::max(queueWatermark_, queueDepth);
}

void CampaignProfiler::noteEventUnsampled(const char* category,
                                          std::size_t queueDepth) {
    const std::string_view key = bucketKey(category);
    const auto it = categories_.find(key);
    Bucket& bucket =
        it != categories_.end() ? it->second : categories_[std::string{key}];
    ++bucket.events;
    ++events_;
    queueWatermark_ = std::max(queueWatermark_, queueDepth);
}

void CampaignProfiler::notePhase(const char* phase, double hostSeconds) {
    phases_[std::string{bucketKey(phase)}] += hostSeconds;
}

std::vector<CampaignProfiler::CategoryProfile> CampaignProfiler::byCategory() const {
    const double scale = static_cast<double>(stride_);
    std::vector<CategoryProfile> profiles;
    profiles.reserve(categories_.size());
    for (const auto& [category, bucket] : categories_) {
        profiles.push_back({category, bucket.events, bucket.hostSeconds * scale});
    }
    std::sort(profiles.begin(), profiles.end(),
              [](const CategoryProfile& a, const CategoryProfile& b) {
                  if (a.hostSeconds != b.hostSeconds) {
                      return a.hostSeconds > b.hostSeconds;
                  }
                  return a.category < b.category;
              });
    return profiles;
}

std::vector<CampaignProfiler::PhaseProfile> CampaignProfiler::byPhase() const {
    std::vector<PhaseProfile> profiles;
    profiles.reserve(phases_.size());
    for (const auto& [phase, seconds] : phases_) {
        profiles.push_back({phase, seconds});
    }
    std::sort(profiles.begin(), profiles.end(),
              [](const PhaseProfile& a, const PhaseProfile& b) {
                  if (a.hostSeconds != b.hostSeconds) {
                      return a.hostSeconds > b.hostSeconds;
                  }
                  return a.phase < b.phase;
              });
    return profiles;
}

std::string CampaignProfiler::renderReport() const {
    std::string out = "== Campaign profile (host time) ==\n";
    char buf[160];
    const double estimated = hostSecondsTotal();
    const double rate =
        estimated > 0.0 ? static_cast<double>(events_) / estimated : 0.0;
    std::snprintf(buf, sizeof buf,
                  "  events dispatched        %llu (%.0f events/sec host)\n",
                  static_cast<unsigned long long>(events_), rate);
    out += buf;
    if (stride_ > 1) {
        std::snprintf(buf, sizeof buf,
                      "  sampling                 1/%llu dispatches timed (%llu samples)\n",
                      static_cast<unsigned long long>(stride_),
                      static_cast<unsigned long long>(sampledEvents_));
        out += buf;
    }
    std::snprintf(buf, sizeof buf, "  host time in dispatch    %.3f s%s\n",
                  estimated, stride_ > 1 ? " (estimated)" : "");
    out += buf;
    std::snprintf(buf, sizeof buf, "  queue depth watermark    %zu\n",
                  queueWatermark_);
    out += buf;
    if (!phases_.empty()) {
        out += "  by phase (exact):\n";
        for (const PhaseProfile& profile : byPhase()) {
            std::snprintf(buf, sizeof buf, "    %-22s %8.3f s\n",
                          profile.phase.c_str(), profile.hostSeconds);
            out += buf;
        }
    }
    out += "  by category:\n";
    for (const CategoryProfile& profile : byCategory()) {
        const double share =
            estimated > 0.0 ? 100.0 * profile.hostSeconds / estimated : 0.0;
        std::snprintf(buf, sizeof buf, "    %-22s %10llu events  %8.3f s  %5.1f%%\n",
                      profile.category.c_str(),
                      static_cast<unsigned long long>(profile.events),
                      profile.hostSeconds, share);
        out += buf;
    }
    return out;
}

void CampaignProfiler::publish(MetricsRegistry& registry) const {
    registry
        .counter("profiler", "events_dispatched",
                 "Simulator events dispatched during the profiled run")
        .inc(events_);
    registry
        .counter("profiler", "events_sampled",
                 "Dispatches bracketed with a host-clock measurement")
        .inc(sampledEvents_);
    registry
        .gauge("profiler", "sampling_stride",
               "Configured dispatch-sampling stride (1 = time everything)")
        .set(static_cast<double>(stride_));
    registry
        .gauge("profiler", "host_seconds",
               "Host wall-clock seconds spent inside event dispatch")
        .set(hostSecondsTotal());
    registry
        .gauge("profiler", "queue_depth_watermark",
               "Maximum pending-event count observed")
        .set(static_cast<double>(queueWatermark_));
    for (const CategoryProfile& profile : byCategory()) {
        registry
            .counter("profiler", "category_events", "category", profile.category,
                     "Simulator events dispatched per event category")
            .inc(profile.events);
        registry
            .gauge("profiler", "category_host_seconds", "category", profile.category,
                   "Host seconds attributed to an event category")
            .set(profile.hostSeconds);
    }
    for (const PhaseProfile& profile : byPhase()) {
        registry
            .gauge("profiler", "phase_host_seconds", "phase", profile.phase,
                   "Exact host seconds spent inside a pipeline phase")
            .set(profile.hostSeconds);
    }
}

ScopedPhase::ScopedPhase(CampaignProfiler* profiler, const char* phase)
    : profiler_{profiler}, phase_{phase}, startSeconds_{0.0} {
    if (profiler_ != nullptr) startSeconds_ = steadySeconds();
}

ScopedPhase::~ScopedPhase() {
    if (profiler_ != nullptr) {
        profiler_->notePhase(phase_, steadySeconds() - startSeconds_);
    }
}

}  // namespace symfail::obs
