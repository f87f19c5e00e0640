/**
 * @file
 * A reusable fixed-size worker pool with chunked work-stealing.
 *
 * The DSE pipeline evaluates hundreds of thousands of design points
 * in batches (one batch per sweep, several sweeps per bench); spawning
 * a fresh std::thread crew per batch wastes both startup latency and
 * scheduler warm-up. ThreadPool keeps one set of workers alive for the
 * process and hands them batches through parallelFor(): items are
 * claimed in chunks off a shared atomic cursor, so imbalanced items
 * (big prefill graphs next to tiny decode graphs) still spread evenly.
 *
 * The calling thread always participates in the batch, so a pool with
 * N workers executes with N+1-way concurrency and a pool with zero
 * workers (single-core hosts) degrades to a plain serial loop with no
 * synchronization beyond one atomic.
 */

#ifndef ACS_COMMON_THREAD_POOL_HH
#define ACS_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace acs {
namespace common {

/**
 * Fixed-size reusable worker pool.
 *
 * Thread-safe: concurrent parallelFor() calls are serialized (one
 * batch owns the pool at a time). A parallelFor() issued from inside a
 * pool worker runs the nested batch inline on the calling thread
 * instead of deadlocking on the pool.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Worker thread count; 0 sizes the pool to
     *                hardware_concurrency() - 1 (the caller supplies
     *                the remaining lane), so a 1-core host gets a
     *                zero-worker, purely serial pool.
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Joins all workers (waits for an in-flight batch to finish). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Pool threads (excluding the batch-submitting caller). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Concurrent lanes a batch can use: workers + the caller. */
    unsigned concurrency() const { return workerCount() + 1; }

    /**
     * Run fn(i) for every i in [0, count) and block until all are
     * done. The caller participates; workers claim `chunk` indices at
     * a time off a shared cursor (chunk 0 picks a size that yields
     * ~8 chunks per lane, clamped to [1, 64]).
     *
     * If any invocation throws, the remaining unclaimed chunks are
     * abandoned, in-flight chunks finish, and the first exception is
     * rethrown here; the pool remains usable afterwards.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn,
                     std::size_t chunk = 0);

    /**
     * The process-wide shared pool, sized on first use from the
     * ACS_THREADS environment variable when set (worker count =
     * ACS_THREADS - 1) or hardware concurrency otherwise. All library
     * batch entry points (dse::DesignEvaluator::evaluateAllParallel,
     * evaluatePlanIndices) route through it so benches and tools reuse
     * one warm crew across every sweep.
     */
    static ThreadPool &shared();

  private:
    /** One submitted batch; lives on the submitter's stack. */
    struct Batch
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t count = 0;
        std::size_t chunk = 1;
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error; //!< guarded by the pool mutex
    };

    void workerLoop();
    void runBatch(Batch &batch);

    std::vector<std::thread> workers_;
    std::mutex mu_;                  //!< guards the fields below
    std::condition_variable workCv_; //!< new batch or shutdown
    std::condition_variable doneCv_; //!< all workers left the batch
    Batch *current_ = nullptr;
    std::uint64_t generation_ = 0;
    unsigned workersBusy_ = 0;
    bool stop_ = false;

    std::mutex batchMu_; //!< serializes concurrent parallelFor calls
};

} // namespace common
} // namespace acs

#endif // ACS_COMMON_THREAD_POOL_HH
