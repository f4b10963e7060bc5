/**
 * @file
 * Multi-threaded batch evaluation driver.
 *
 * The paper's experiments are grids: every loop of the suite x every
 * strategy x every register-file size. SuiteRunner evaluates such a
 * batch of (loop, strategy, options) jobs across a pool of worker
 * threads while keeping the output *deterministic*: results[i] always
 * corresponds to jobs[i], every job is evaluated independently with no
 * shared mutable state, and all reductions are left to the caller (who
 * accumulates in index order), so the same batch produces bit-identical
 * results at any thread count.
 *
 * Per-call costs the serial harnesses used to pay on every job are
 * amortized here:
 *  - worker threads are spawned once and persist across batches (the
 *    bench harnesses dispatch the same grid dozens of times);
 *  - scheduler objects are constructed once per worker thread and
 *    reused across all its jobs;
 *  - the MII of each input loop is memoized per (graph content,
 *    machine) across batches, and a run looks each distinct loop up
 *    once, for both its cost rank and its jobs' known MII;
 *  - every (graph, machine, II, scheduler) probe outcome — including
 *    "no schedule at this II" — is memoized in a ScheduleMemo shared
 *    by all workers, so best-of-all's binary search and the grid's
 *    repeated cells never schedule the same probe twice.
 * Both memos are single-flight (two workers never compute one key),
 * and neither changes results: every job's result equals the
 * context-free pipelineLoop call on the same inputs.
 *
 * Within a run, jobs are claimed in a work-size-aware order: the grid
 * is walked heaviest-first, ranked by a cheap cost estimate (node count
 * x candidate-II span), so a heavy loop starts early instead of
 * serializing one worker at the batch's tail. Claiming is
 * work-stealing, one job per claim: the planned order is dealt
 * round-robin into per-worker deques, each worker pops its own deque
 * from the front (heaviest first) and an idle worker steals from the
 * *back* of a victim's deque (the lightest remaining job, the cheapest
 * to migrate) — so no claim ever touches a shared counter and the tail
 * of a batch self-balances. Ordering and stealing only change *when* a
 * job runs, never its result or its slot, so output stays
 * byte-identical at any thread count.
 */

#ifndef SWP_DRIVER_SUITE_RUNNER_HH
#define SWP_DRIVER_SUITE_RUNNER_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/fingerprint.hh"
#include "sched/sched_memo.hh"
#include "support/singleflight.hh"
#include "verify/certify.hh"
#include "workload/suitegen.hh"

namespace swp
{

/** One evaluation job of an experiment grid. */
struct BatchJob
{
    /** Index into the suite passed to SuiteRunner::run. */
    int loop = 0;

    Strategy strategy = Strategy::Spill;
    PipelinerOptions options;
};

/**
 * Per-worker wall-time breakdown, maintained by the pool from
 * monotonic-clock deltas. scheduleSeconds is time inside jobs minus
 * the memo waits that happened during them (singleFlightWaitSeconds),
 * so the three buckets answer "is the pool scheduling, waiting on the
 * memos, or hunting for work?". Observability only (stderr/JSON): no
 * result bytes ever depend on these numbers.
 */
struct WorkerPerf
{
    double scheduleSeconds = 0;  ///< Executing jobs, memo waits excluded.
    double memoWaitSeconds = 0;  ///< Blocked on another worker's compute.
    double stealSeconds = 0;     ///< Claiming work (own pops and steals).
    long jobs = 0;               ///< Jobs executed.
    long claims = 0;             ///< Jobs claimed (own + stolen).
    long steals = 0;             ///< Jobs taken from a victim's deque.
};

/** Per-run evaluation options; the defaults reproduce run(3 args). */
struct RunOptions
{
    /**
     * Check every result with the independent legality verifier
     * (verify/legality) as the job completes; any violation makes run()
     * throw a FatalError whose message names the violated
     * edge/slot/range. Forced on in Debug and sanitizer builds
     * (kAlwaysVerifyResults), so no scheduler bug can hide behind a
     * fast Release-only reproduction. Verification reads the finished
     * result only — the evaluated schedules and the emitted bytes are
     * identical with it on or off.
     */
    bool verify = false;

    /**
     * Generate the optimality-certificate bundle (verify/certify) for
     * every evaluated result, validate it with the independent
     * certificate checker, and cross-check it against the achieved
     * II/register count; any rejected certificate or contradiction
     * makes run() throw a FatalError. Like verify, certification reads
     * finished results only — it never touches stdout bytes.
     */
    bool certify = false;

    /**
     * When set (implies certify), resized to jobs.size() and slot i
     * filled with job i's certificate summary. Summaries are a pure
     * function of the job, so the slots are identical at any thread
     * count.
     */
    std::vector<CertSummary> *certificates = nullptr;
};

/** Deterministic worker-pool evaluator for batches of pipeline jobs. */
class SuiteRunner
{
  public:
    /** threads == 0 selects the hardware concurrency; 1 runs inline. */
    explicit SuiteRunner(int threads = 1);
    ~SuiteRunner();

    SuiteRunner(const SuiteRunner &) = delete;
    SuiteRunner &operator=(const SuiteRunner &) = delete;

    int threads() const { return threads_; }

    /**
     * MII of a loop, memoized per (graph content, machine
     * configuration). Safe to call concurrently; both key halves are
     * structural fingerprints, so rebuilt or short-lived graphs and
     * same-named machines never alias stale entries, and the memo is
     * single-flight: concurrent workers asking for the same key wait
     * for one computation instead of repeating it.
     */
    int mii(const Ddg &g, const Machine &m);

    /** The shared probe memo (for tests and observability). */
    ScheduleMemo &scheduleMemo() { return scheduleMemo_; }

    /** Lock stripes backing the bounds memo. */
    std::size_t boundsStripeCount() const
    {
        return boundsCache_.stripeCount();
    }

    /** Counters of both memos, for tests and tuning. Each memo's
        counters are one consistent cross-stripe snapshot. */
    struct MemoStats
    {
        SingleFlightStats bounds;
        SingleFlightStats schedule;
    };
    MemoStats
    memoStats() const
    {
        return {boundsCache_.stats(), scheduleMemo_.stats()};
    }

    /**
     * Snapshot of the per-worker counters accumulated since
     * construction or the last resetWorkerPerf(); slot w belongs to the
     * w-th participant of each batch (slot 0 includes the dispatching
     * caller and all serial-path work).
     */
    std::vector<WorkerPerf> workerPerf() const;
    void resetWorkerPerf();

    /**
     * Evaluate all jobs. results[i] corresponds to jobs[i]; the result
     * vector is bit-identical at any thread count. Each result's
     * graph() references the suite entry it was built from unless
     * spilling transformed the loop, so the suite must outlive the
     * returned results. Exceptions thrown by a job are rethrown here.
     */
    std::vector<PipelineResult> run(const std::vector<SuiteLoop> &suite,
                                    const Machine &m,
                                    const std::vector<BatchJob> &jobs,
                                    const RunOptions &opts);

    std::vector<PipelineResult>
    run(const std::vector<SuiteLoop> &suite, const Machine &m,
        const std::vector<BatchJob> &jobs)
    {
        return run(suite, m, jobs, RunOptions{});
    }

    /** run()'s plan of a batch: the evaluation order and the MII of
        every loop a job names. */
    struct JobPlan
    {
        /** Every job index, ranked heaviest-first by its loop's
            work-size estimate, node count x candidate-II span (MII
            through defaultMaxIi), with ties in grid order. */
        std::vector<std::size_t> order;
        /** Slot per suite loop; 0 for loops no job names. */
        std::vector<int> loopMii;
    };

    /**
     * The plan run() evaluates a batch by. Each distinct loop makes one
     * bounds-memo request, spread across the pool. Deterministic for a
     * given (suite, machine, jobs).
     */
    JobPlan planJobs(const std::vector<SuiteLoop> &suite, const Machine &m,
                     const std::vector<BatchJob> &jobs);

    /**
     * Deterministic parallel-for: fn(i) for every i in [0, count), in
     * unspecified order across the pool. fn must only write to
     * per-index state (e.g. slot i of a pre-sized vector); exceptions
     * are rethrown on the calling thread.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn) const;

  private:
    /**
     * Pool skeleton: makeWorker() is invoked once per participating
     * thread (to build per-thread state such as scheduler objects); the
     * returned callable is then fed indices claimed from the task's
     * work-stealing deques.
     */
    using Worker = std::function<void(std::size_t)>;

    /** One batch in flight on the persistent pool. */
    struct PoolTask
    {
        /** One worker's deque of indices: the owner pops the front,
            idle thieves pop the back. Indices are only ever removed
            after seeding, so "every deque empty" means the batch is
            fully claimed. */
        struct Queue
        {
            std::mutex m;
            std::deque<std::size_t> indices;
        };

        /** Owned by the dispatching caller; valid while it waits. */
        const std::function<Worker()> *makeWorker = nullptr;
        /** Per-worker deques, seeded round-robin in index order before
            the task is published (so the heaviest planned jobs sit at
            the fronts and the light tail at the backs). */
        std::unique_ptr<Queue[]> queues;
        std::size_t queueCount = 0;
        /** Arrival-order worker slots (deque ownership + perf slot). */
        std::atomic<std::size_t> nextSlot{0};
        std::atomic<bool> abort{false};
        std::mutex errorMutex;
        std::exception_ptr error;

        void
        fail()
        {
            {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
            abort.store(true, std::memory_order_relaxed);
        }
    };

    void dispatch(std::size_t count,
                  const std::function<Worker()> &makeWorker) const;
    void ensurePool() const;
    void poolMain() const;
    void runTask(PoolTask &t) const;
    bool claim(PoolTask &t, std::size_t self, std::size_t &out,
               WorkerPerf &perf) const;
    void flushPerf(std::size_t slot, const WorkerPerf &perf) const;

    /**
     * Cheap work-size estimate of a job on loop g whose MII is known:
     * node count x candidate-II span. It deliberately ignores the
     * strategy — every strategy's cost is dominated by how many (II,
     * schedule) probes of how large a graph it may have to run — and
     * it never schedules anything.
     */
    static double costOf(const Ddg &g, const Machine &m, int loopMii);

    int threads_ = 1;

    /** Bounds memo entry; the witness verifies hits against
        fingerprint collisions in debug builds. */
    struct CachedBounds
    {
        int mii = 0;
        KeyWitness witness;
    };
    SingleFlightCache<std::pair<std::uint64_t, std::uint64_t>, CachedBounds>
        boundsCache_;

    ScheduleMemo scheduleMemo_;

    /** Per-worker counters (slot per pool participant), merged by the
        workers as they finish a task. */
    mutable std::mutex perfMutex_;
    mutable std::vector<WorkerPerf> perf_;

    /** @name Persistent worker pool (threads_ - 1 threads; the
        dispatching caller is the final worker). Spawned on first
        parallel dispatch, joined in the destructor. */
    /// @{
    mutable std::mutex dispatchMutex_;  ///< One batch in flight at once.
    mutable std::mutex poolMutex_;
    mutable std::condition_variable workCv_;  ///< New task or shutdown.
    mutable std::condition_variable idleCv_;  ///< activeWorkers_ -> 0.
    mutable std::vector<std::thread> pool_;
    mutable std::shared_ptr<PoolTask> task_;
    mutable std::uint64_t taskGen_ = 0;
    mutable int activeWorkers_ = 0;
    mutable bool shutdown_ = false;
    /// @}
};

} // namespace swp

#endif // SWP_DRIVER_SUITE_RUNNER_HH
