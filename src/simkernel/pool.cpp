#include "simkernel/pool.hpp"

#include <algorithm>
#include <deque>
#include <utility>

namespace symfail::sim {
namespace {

/// The running task's share; 0 outside any pool task.
thread_local int tTaskThreads = 0;

void runTask(const std::function<void(std::size_t)>& task, std::size_t index,
             int share) {
    struct Scope {
        int outer = tTaskThreads;
        explicit Scope(int threads) { tTaskThreads = std::max(threads, 1); }
        ~Scope() { tTaskThreads = outer; }
    } scope{share};
    task(index);
}

}  // namespace

/// One worker's task queue.  The owner pops from the back (LIFO keeps its
/// cache warm); thieves take from the front (FIFO steals the tasks the
/// owner would reach last, which for our round-robin seeding are the ones
/// most worth redistributing).
struct WorkerPool::Queue {
    std::mutex mutex;
    std::deque<std::size_t> tasks;

    bool popBack(std::size_t& out) {
        const std::lock_guard<std::mutex> lock{mutex};
        if (tasks.empty()) return false;
        out = tasks.back();
        tasks.pop_back();
        return true;
    }

    bool stealFront(std::size_t& out) {
        const std::lock_guard<std::mutex> lock{mutex};
        if (tasks.empty()) return false;
        out = tasks.front();
        tasks.pop_front();
        return true;
    }
};

int taskThreads() {
    static const int hardware =
        static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
    return tTaskThreads > 0 ? tTaskThreads : hardware;
}

WorkerPool::WorkerPool(int workers) {
    const auto count = static_cast<std::size_t>(std::max(workers, 1));
    queues_.reserve(count);
    for (std::size_t w = 0; w < count; ++w) queues_.push_back(std::make_unique<Queue>());
    threads_.reserve(count - 1);
    try {
        for (std::size_t w = 1; w < count; ++w) {
            threads_.emplace_back([this, w]() { threadMain(w); });
        }
    } catch (...) {
        stopThreads();  // the destructor will not run
        throw;
    }
}

WorkerPool::~WorkerPool() { stopThreads(); }

void WorkerPool::stopThreads() {
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& thread : threads_) thread.join();
}

void WorkerPool::run(std::size_t taskCount,
                     const std::function<void(std::size_t)>& task, int share) {
    if (threads_.empty()) {
        for (std::size_t i = 0; i < taskCount; ++i) runTask(task, i, share);
        return;
    }
    if (taskCount == 0) return;
    // Round-robin seeding spreads neighbouring indices (same grid cell,
    // similar cost; phones enrolled at similar times) across workers, so
    // stealing is the exception rather than the steady state.  The
    // threads are parked, so the queues need no lock until the wake-up.
    for (std::size_t i = 0; i < taskCount; ++i) {
        queues_[i % queues_.size()]->tasks.push_back(i);
    }
    {
        const std::lock_guard<std::mutex> lock{mutex_};
        task_ = &task;
        share_ = share;
        busy_ = threads_.size();
        ++generation_;
    }
    wake_.notify_all();
    drain(0);
    std::unique_lock<std::mutex> lock{mutex_};
    idle_.wait(lock, [this]() { return busy_ == 0; });
    task_ = nullptr;
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void WorkerPool::drain(std::size_t self) {
    const std::size_t count = queues_.size();
    for (;;) {
        std::size_t index = 0;
        bool found = queues_[self]->popBack(index);
        for (std::size_t k = 1; !found && k < count; ++k) {
            found = queues_[(self + k) % count]->stealFront(index);
        }
        if (!found) return;
        try {
            runTask(*task_, index, share_);
        } catch (...) {
            const std::lock_guard<std::mutex> lock{mutex_};
            if (!error_) error_ = std::current_exception();
        }
    }
}

void WorkerPool::threadMain(std::size_t self) {
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock{mutex_};
            wake_.wait(lock, [&]() { return stopping_ || generation_ != seen; });
            if (stopping_) return;
            seen = generation_;
        }
        drain(self);
        const std::lock_guard<std::mutex> lock{mutex_};
        if (--busy_ == 0) idle_.notify_one();
    }
}

void runWorkStealing(std::size_t taskCount, int workers,
                     const std::function<void(std::size_t)>& task, int share) {
    const auto wanted = static_cast<std::size_t>(std::max(workers, 1));
    WorkerPool pool{static_cast<int>(std::min(wanted, std::max<std::size_t>(taskCount, 1)))};
    pool.run(taskCount, task, share);
}

}  // namespace symfail::sim
