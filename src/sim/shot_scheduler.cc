#include "sim/shot_scheduler.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace qla::sim {

namespace {

/**
 * Strict QLA_THREADS parse: the whole value (leading whitespace aside)
 * must be a positive decimal integer that fits an int. std::atoi would
 * silently read "2x" as 2 and "four" as 0, turning typos into
 * surprising thread counts or a silent hardware-concurrency fallback.
 */
bool
parseThreadsEnv(const char *env, int &threads)
{
    errno = 0;
    char *end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE || value <= 0
        || value > 1 << 20)
        return false;
    threads = static_cast<int>(value);
    return true;
}

} // namespace

int
resolveThreadCount(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("QLA_THREADS")) {
        int parsed = 0;
        if (parseThreadsEnv(env, parsed))
            return parsed;
        // Warn once per malformed value so a typo is visible in the
        // log without spamming every sweep chunk.
        static std::mutex warn_mutex;
        static std::string warned_value;
        std::lock_guard<std::mutex> lock(warn_mutex);
        if (warned_value != env) {
            warned_value = env;
            std::fprintf(stderr,
                         "qla: ignoring malformed QLA_THREADS=\"%s\" "
                         "(want a positive integer); falling back to "
                         "hardware concurrency\n",
                         env);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

ShotScheduler::ShotScheduler(int threads)
    : threads_(resolveThreadCount(threads))
{
    pool_.reserve(threads_ - 1);
    for (int w = 1; w < threads_; ++w)
        pool_.emplace_back([this, w] { poolThreadMain(w); });
}

ShotScheduler::~ShotScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : pool_)
        t.join();
}

void
ShotScheduler::run(std::size_t count, const JobFn &fn)
{
    std::lock_guard<std::mutex> run_lock(run_mutex_);
    if (count == 0)
        return;
    if (threads_ == 1 || count == 1) {
        // Sequential fast path: no pool handoff, exceptions propagate
        // directly.
        for (std::size_t job = 0; job < count; ++job)
            fn(job, 0);
        return;
    }

    // No pool thread is inside the claim loop between runs, so the run
    // state can be reset freely; opening the run under mutex_ publishes
    // it to every thread that joins.
    fn_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        error_ = nullptr;
        ++generation_;
        open_ = true;
    }
    cv_.notify_all();

    workLoop(0);

    // Every job is claimed; wait for the pool threads still running
    // theirs, then close the run so a late waker stays out of it.
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return inside_ == 0; });
        open_ = false;
        error = error_;
    }
    fn_ = nullptr;
    if (error)
        std::rethrow_exception(error);
}

void
ShotScheduler::poolThreadMain(int worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [&] {
                return stop_ || (open_ && generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            ++inside_;
        }
        workLoop(worker);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--inside_ > 0)
                continue;
        }
        cv_.notify_all();
    }
}

void
ShotScheduler::workLoop(int worker)
{
    for (;;) {
        const std::size_t job
            = next_.fetch_add(1, std::memory_order_relaxed);
        // After a failure the remaining jobs are drained unexecuted.
        if (job >= count_ || cancelled_.load(std::memory_order_relaxed))
            return;
        try {
            (*fn_)(job, worker);
        } catch (...) {
            cancelled_.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

} // namespace qla::sim
