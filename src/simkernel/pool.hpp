// Work-stealing execution of an indexed task set.
//
// Two callers share one pool.  The experiment Runner has hundreds of
// independent trials of very unequal cost (cells differ in fleet size and
// campaign length).  A fleet runs every phone's simulator through one
// window of simulated time after another, and phones that enrolled late
// have little to do in the early windows.  A static block split would
// leave workers idle behind the biggest task, so each worker owns a deque
// of task indices and steals from a sibling when its own runs dry.
//
// The two nest: a sweep trial runs a campaign, whose phones could fan out
// again.  Every task therefore carries a thread share, which its run
// grants (see taskThreads()): the Runner splits the machine's threads
// between the trials it runs at once, and each trial's campaign runs its
// phones on workers of its own, as many as its share.  The split is
// static, so the threads of all the runs at once stay within the
// machine's count.
//
// Determinism contract: the pool decides only *where* and *when* a task
// runs, never *what* it computes — tasks must depend solely on their index
// (the Runner derives every trial's RNG stream from its coordinates; a
// phone owns its simulator) and must write only to their own state.  Under
// that contract the output is byte-identical for any worker count,
// including 1 (which runs inline on the calling thread with no threads
// started at all).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace symfail::sim {

/// The threads the calling thread may keep busy.  Outside any pool run it
/// is the machine's hardware thread count, read once per process (the
/// standard library reads it from the system on every call); inside a
/// task, inline tasks included, it is the share that the task's run
/// granted: 1 unless the run's caller passed more.  A task that could
/// itself fan out (a campaign inside a sweep trial) starts no more
/// workers than this, so nested runs never oversubscribe the machine.
[[nodiscard]] int taskThreads();

/// Worker threads that persist across runs: a fleet starts them once per
/// campaign and runs its phones through every window on them.
class WorkerPool {
public:
    /// Starts `workers - 1` threads; the calling thread is the last
    /// worker.  `workers <= 1` starts none and every run executes inline.
    explicit WorkerPool(int workers);
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Runs `task(0) .. task(taskCount-1)` and blocks until all complete.
    /// Task i is queued on worker i % workers in every run, so a task that
    /// runs once per window keeps its thread (and its malloc arena) unless
    /// an idle sibling steals it.  A task that throws does not stop its
    /// siblings; the first exception is rethrown here once the run is over.
    /// Each task sees `share` (at least 1) as its taskThreads().
    void run(std::size_t taskCount, const std::function<void(std::size_t)>& task,
             int share = 1);

private:
    struct Queue;

    /// Takes tasks from `self`'s queue, then from its siblings', until
    /// every queue is empty.  Queues only shrink during a run (tasks are
    /// never subdivided), so one empty sweep means the run has no task
    /// left to start.
    void drain(std::size_t self);
    void threadMain(std::size_t self);
    /// Wakes the threads to leave and joins them.
    void stopThreads();

    std::vector<std::unique_ptr<Queue>> queues_;
    std::mutex mutex_;
    std::condition_variable wake_;  ///< Threads wait here for the next run.
    std::condition_variable idle_;  ///< The caller waits here for the threads.
    const std::function<void(std::size_t)>* task_{nullptr};
    int share_{1};                 ///< The current run's share per task.
    std::uint64_t generation_{0};  ///< Bumped once per run.
    std::size_t busy_{0};          ///< Threads still draining the current run.
    bool stopping_{false};
    std::exception_ptr error_;  ///< The run's first task exception.
    std::vector<std::thread> threads_;
};

/// One run on a pool of `workers` started for it (no more than there are
/// tasks): `workers <= 1` executes inline.  Each task may keep `share`
/// threads busy (see taskThreads()).
void runWorkStealing(std::size_t taskCount, int workers,
                     const std::function<void(std::size_t)>& task, int share = 1);

}  // namespace symfail::sim
