/**
 * @file
 * Fixed-size thread pool for the experiment runner.
 *
 * Work items are submitted as callables and executed by a fixed set
 * of worker threads; submit() hands back a std::future so callers can
 * wait per-task and exceptions thrown inside a task propagate to
 * whoever calls future.get(). The destructor drains every queued task
 * before joining (shutdown-after-drain semantics), so submitting and
 * then destroying the pool is a valid "run everything" pattern.
 */

#ifndef DOL_RUNNER_THREAD_POOL_HPP
#define DOL_RUNNER_THREAD_POOL_HPP

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dol::runner
{

/** Worker count to use by default: every hardware thread. */
unsigned hardwareJobs();

class ThreadPool
{
  public:
    /** @param threads worker count; clamped to at least one. */
    explicit ThreadPool(unsigned threads);

    /** Drains all queued work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Queue one task. The returned future completes when the task
     * ran; an exception escaping the task is rethrown by get().
     */
    std::future<void> submit(std::function<void()> task);

    /** Block until every task submitted so far has finished. */
    void wait();

  private:
    void workerLoop();

    std::mutex _mutex;
    std::condition_variable _wake;  ///< workers: queue non-empty/stop
    std::condition_variable _idle;  ///< waiters: everything finished
    std::deque<std::packaged_task<void()>> _queue;
    std::vector<std::thread> _workers;
    unsigned _active = 0; ///< tasks currently executing
    bool _stopping = false;
};

} // namespace dol::runner

#endif // DOL_RUNNER_THREAD_POOL_HPP
