#include "osfault/memory_plane.hpp"

#include "symbos/heap.hpp"

namespace symfail::osfault {

/// Heap headroom left during an episode.
constexpr std::size_t kPressureHeadroomBytes = 256;
static_assert(kPressureHeadroomBytes < logger::kHeartbeatScratchBytes,
              "the next heartbeat allocation must not fit, or no kill fires");

/// Watchdog delay before the daemon is restarted (lognormal median, sigma).
constexpr sim::Duration kWatchdogDelayMedian = sim::Duration::minutes(8);
constexpr double kWatchdogDelaySigma = 0.5;

MemoryPlane::MemoryPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                         logger::FailureLogger& logger, MemoryPlaneConfig config,
                         std::uint64_t seed)
    : FaultPlane{simulator, "osfault.memory", config.episodesPerKHour, seed},
      device_{&device},
      logger_{&logger} {
    // The kernel survives reboots, so one hook registration covers the
    // phone's lifetime.  Only a *panicked* daemon death is an OOM kill
    // worth a watchdog restart; device shutdowns restart the logger
    // through the normal boot path.
    device_->kernel().addTerminationHook(
        [this](symbos::ProcessId pid, const std::string& /*name*/,
               symbos::TerminationReason reason) {
            if (pid != watchedPid_ || watchedPid_ == 0) return;
            watchedPid_ = 0;
            if (reason != symbos::TerminationReason::Panicked) return;
            ++oomKills_;
            const sim::Duration delay =
                rng().lognormalDuration(kWatchdogDelayMedian, kWatchdogDelaySigma);
            this->simulator().scheduleAfter(delay, "osfault.memory.watchdog", [this]() {
                logger_->restartDaemon();
                if (logger_->daemonPid() != 0) ++restarts_;
            });
        });
}

void MemoryPlane::activate(sim::Rng& /*rng*/) {
    if (!device_->isOn()) return;
    const symbos::ProcessId pid = logger_->daemonPid();
    if (pid == 0 || !device_->kernel().alive(pid)) return;
    if (watchedPid_ != 0) return;  // an episode is already in flight
    // Only a real RunL can leave, so the daemon runs its ticks as AOs
    // until the squeeze kills it.
    logger_->switchToAoTicks();
    // Squeeze the daemon's heap: everything currently allocated survives,
    // but the next heartbeat scratch allocation cannot fit.
    symbos::HeapModel& heap = device_->kernel().heapOf(pid);
    heap.setCapacity(heap.bytesInUse() + kPressureHeadroomBytes);
    watchedPid_ = pid;
}

}  // namespace symfail::osfault
