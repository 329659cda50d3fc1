#include "osfault/memory_plane.hpp"

#include "symbos/heap.hpp"

namespace symfail::osfault {

MemoryPlane::MemoryPlane(sim::Simulator& simulator, phone::PhoneDevice& device,
                         logger::FailureLogger& logger, MemoryPlaneConfig config,
                         std::uint64_t seed)
    : FaultPlane{simulator, "osfault.memory",
                 FaultSchedule{config.episodesPerKHour, 1, {}, {}}, seed},
      device_{&device},
      logger_{&logger},
      config_{config} {
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
            const sim::Duration delay = rng().lognormalDuration(
                config_.watchdogDelayMedian, config_.watchdogDelaySigma);
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
    // Squeeze the daemon's heap: everything currently allocated survives,
    // but the next heartbeat scratch allocation cannot fit.
    symbos::HeapModel& heap = device_->kernel().heapOf(pid);
    heap.setCapacity(heap.bytesInUse() + config_.pressureHeadroomBytes);
    watchedPid_ = pid;
}

}  // namespace symfail::osfault
