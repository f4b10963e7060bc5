#include "driver/suite_runner.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <queue>

#include "sched/fingerprint.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "support/diag.hh"
#include "verify/legality.hh"

namespace swp
{

namespace
{

/**
 * Depth of pool-task bodies running on this thread. A dispatch issued
 * from inside a task (nested parallelFor from a job) must run inline:
 * the pool is busy with the batch that issued it, and waiting for the
 * dispatch slot would deadlock.
 */
thread_local int tlsInTask = 0;

struct TaskScope
{
    TaskScope() { ++tlsInTask; }
    ~TaskScope() { --tlsInTask; }
};

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

int
resolveThreadCount(int threads)
{
    if (threads > 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? int(hw) : 1;
}

} // namespace

std::atomic<unsigned> SuiteRunner::claimJitter_{0};

void
SuiteRunner::setClaimJitterForTesting(unsigned seed)
{
    claimJitter_.store(seed, std::memory_order_relaxed);
}

SuiteRunner::SuiteRunner(int threads)
    : threads_(resolveThreadCount(threads)),
      boundsCache_(threads_),
      scheduleMemo_(kVerifyMemoKeys, threads_),
      perf_(std::size_t(threads_))
{
}

SuiteRunner::~SuiteRunner()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : pool_)
        t.join();
}

int
SuiteRunner::mii(const Ddg &g, const Machine &m)
{
    const auto key =
        std::make_pair(graphFingerprint(g), machineFingerprint(m));
    const CachedBounds cached = boundsCache_.getOrCompute(
        key,
        [&]() {
            CachedBounds c;
            c.mii = swp::mii(g, m);
            if (kVerifyMemoKeys) {
                c.graph = g;
                c.machine = m;
            }
            return c;
        },
        [&](const CachedBounds &hit) {
            if (!kVerifyMemoKeys)
                return;
            SWP_ASSERT(hit.graph &&
                           graphsFingerprintEquivalent(g, *hit.graph),
                       "bounds memo fingerprint collision: graph '",
                       g.name(),
                       "' hit an entry built from a different graph");
            SWP_ASSERT(hit.machine &&
                           machinesFingerprintEquivalent(m, *hit.machine),
                       "bounds memo fingerprint collision: machine '",
                       m.name(),
                       "' hit an entry built from a different machine");
        });
    return cached.mii;
}

void
SuiteRunner::ensurePool() const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (!pool_.empty())
        return;
    const int spawn = threads_ - 1;
    pool_.reserve(std::size_t(spawn));
    for (int t = 0; t < spawn; ++t)
        pool_.emplace_back([this] { poolMain(); });
}

/**
 * Take the next job index for worker `self`: own deque front first
 * (heaviest remaining of its share), then the back of the next
 * non-empty victim, scanning from self+1. Indices are never re-inserted
 * after seeding, so a fully-empty scan means the batch is claimed and
 * the worker can retire. The whole hunt is billed to perf.stealSeconds.
 */
bool
SuiteRunner::claim(PoolTask &t, std::size_t self, std::size_t &out,
                   WorkerPerf &perf) const
{
    const auto start = std::chrono::steady_clock::now();

    // Test hook: perturb who wins each race so the determinism test
    // can explore many interleavings (a no-op when unset).
    const unsigned jitterSeed = claimJitter_.load(std::memory_order_relaxed);
    if (jitterSeed != 0) {
        thread_local unsigned state = 0;
        state = state * 1664525u + 1013904223u + jitterSeed +
                unsigned(self);
        volatile unsigned sink = 0;
        for (unsigned i = 0, n = state % 2048u; i < n; ++i)
            sink += i;
        (void)sink;
    }

    bool ok = false;
    bool stolen = false;
    {
        PoolTask::Queue &own = t.queues[self];
        std::lock_guard<std::mutex> lock(own.m);
        if (!own.indices.empty()) {
            out = own.indices.front();
            own.indices.pop_front();
            ok = true;
        }
    }
    for (std::size_t k = 1; !ok && k < t.queueCount; ++k) {
        PoolTask::Queue &victim = t.queues[(self + k) % t.queueCount];
        std::lock_guard<std::mutex> lock(victim.m);
        if (!victim.indices.empty()) {
            out = victim.indices.back();
            victim.indices.pop_back();
            ok = stolen = true;
        }
    }

    perf.stealSeconds += secondsSince(start);
    if (ok) {
        ++perf.claims;
        if (stolen)
            ++perf.steals;
    }
    return ok;
}

/**
 * Body run by every thread participating in a task (pool threads and
 * the dispatching caller alike): take a worker slot, build per-thread
 * state, then consume indices from the work-stealing deques until they
 * run dry or a job fails.
 */
void
SuiteRunner::runTask(PoolTask &t) const
{
    if (t.abort.load(std::memory_order_relaxed))
        return;
    // Arrival order assigns each participant a deque. More participants
    // than deques cannot happen (the pool holds threads_ - 1 threads
    // and the dispatching caller is the last worker), but the modulo
    // keeps a straggler correct regardless: deques are mutex-guarded,
    // so sharing one merely shares its work.
    const std::size_t self =
        t.nextSlot.fetch_add(1, std::memory_order_relaxed) % t.queueCount;

    WorkerPerf perf;
    std::size_t i = 0;
    // Claim an index before building any per-thread state. This bounds
    // the participants to the index count (a pool thread waking for a
    // batch smaller than the pool backs out after one empty hunt
    // instead of constructing scheduler objects it will never use), and
    // it protects makeWorker's lifetime: a thread that cannot claim an
    // index never touches makeWorker — whose captures are locals of the
    // dispatching caller, which only returns once it has observed
    // every deque drained and activeWorkers_ == 0.
    if (!claim(t, self, i, perf)) {
        flushPerf(self, perf);
        return;
    }
    const TaskScope scope;
    // makeWorker() runs on the worker thread too (it allocates
    // per-thread state); a throw there must reach the caller, not
    // std::terminate.
    Worker fn;
    try {
        fn = (*t.makeWorker)();
    } catch (...) {
        t.fail();
        return;
    }
    do {
        if (t.abort.load(std::memory_order_relaxed))
            break;
        const double wait0 = singleFlightWaitSeconds();
        const auto start = std::chrono::steady_clock::now();
        try {
            fn(i);
        } catch (...) {
            t.fail();
        }
        const double elapsed = secondsSince(start);
        const double waited = singleFlightWaitSeconds() - wait0;
        perf.memoWaitSeconds += waited;
        perf.scheduleSeconds += elapsed > waited ? elapsed - waited : 0.0;
        ++perf.jobs;
    } while (claim(t, self, i, perf));
    flushPerf(self, perf);
}

void
SuiteRunner::flushPerf(std::size_t slot, const WorkerPerf &perf) const
{
    std::lock_guard<std::mutex> lock(perfMutex_);
    WorkerPerf &w = perf_[slot % perf_.size()];
    w.scheduleSeconds += perf.scheduleSeconds;
    w.memoWaitSeconds += perf.memoWaitSeconds;
    w.stealSeconds += perf.stealSeconds;
    w.jobs += perf.jobs;
    w.claims += perf.claims;
    w.steals += perf.steals;
}

std::vector<WorkerPerf>
SuiteRunner::workerPerf() const
{
    std::lock_guard<std::mutex> lock(perfMutex_);
    return perf_;
}

void
SuiteRunner::resetWorkerPerf()
{
    std::lock_guard<std::mutex> lock(perfMutex_);
    perf_.assign(perf_.size(), WorkerPerf{});
}

void
SuiteRunner::poolMain() const
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(poolMutex_);
    for (;;) {
        workCv_.wait(lock, [&] { return shutdown_ || taskGen_ != seen; });
        if (shutdown_)
            return;
        seen = taskGen_;
        const std::shared_ptr<PoolTask> t = task_;
        if (!t)
            continue;  // Task already retired; wait for the next one.
        ++activeWorkers_;
        lock.unlock();
        runTask(*t);
        lock.lock();
        if (--activeWorkers_ == 0)
            idleCv_.notify_all();
    }
}

void
SuiteRunner::dispatch(std::size_t count,
                      const std::function<Worker()> &makeWorker) const
{
    if (count == 0)
        return;

    // Serial path: a single thread, a single job, or a dispatch nested
    // inside a pool task (which would deadlock waiting for the slot its
    // own batch holds) runs inline on the calling thread — same
    // results, no parallel speedup. Nested dispatches skip the perf
    // accounting: their time is already inside the enclosing job's.
    if (threads_ == 1 || count == 1 || tlsInTask > 0) {
        const Worker fn = makeWorker();
        if (tlsInTask > 0) {
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
            return;
        }
        WorkerPerf perf;
        for (std::size_t i = 0; i < count; ++i) {
            const double wait0 = singleFlightWaitSeconds();
            const auto start = std::chrono::steady_clock::now();
            fn(i);
            const double elapsed = secondsSince(start);
            const double waited = singleFlightWaitSeconds() - wait0;
            perf.memoWaitSeconds += waited;
            perf.scheduleSeconds +=
                elapsed > waited ? elapsed - waited : 0.0;
            ++perf.jobs;
        }
        flushPerf(0, perf);
        return;
    }

    // The pool runs one batch at a time; concurrent dispatches from
    // other threads take turns.
    const std::lock_guard<std::mutex> slot(dispatchMutex_);
    ensurePool();

    auto task = std::make_shared<PoolTask>();
    task->makeWorker = &makeWorker;
    // Deal the indices round-robin across one deque per worker, in
    // index order: fronts get the heaviest work (run() indexes its
    // heaviest-first plan), backs the light tail that thieves migrate.
    // Seeding happens before the task is published, so no lock is
    // needed yet.
    task->queueCount = std::size_t(threads_);
    task->queues.reset(new PoolTask::Queue[task->queueCount]);
    for (std::size_t i = 0; i < count; ++i)
        task->queues[i % task->queueCount].indices.push_back(i);
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        task_ = task;
        ++taskGen_;
    }
    workCv_.notify_all();

    runTask(*task);  // The caller is the pool's final worker.

    {
        // activeWorkers_ is incremented under poolMutex_ before a pool
        // thread enters runTask, so activeWorkers_ == 0 here means no
        // participant can still touch makeWorker: any thread waking
        // later either finds task_ reset, or fails to claim an index
        // (all are claimed by now) and backs out without calling
        // makeWorker.
        std::unique_lock<std::mutex> lock(poolMutex_);
        idleCv_.wait(lock, [&] { return activeWorkers_ == 0; });
        task_.reset();
    }
    if (task->error)
        std::rethrow_exception(task->error);
}

void
SuiteRunner::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)> &fn) const
{
    dispatch(count, [&fn]() -> Worker { return fn; });
}

double
SuiteRunner::jobCost(const std::vector<SuiteLoop> &suite,
                     const Machine &m, const BatchJob &job)
{
    const Ddg &g = suite[std::size_t(job.loop)].graph;
    const int span =
        std::max(1, defaultMaxIi(g, m) - mii(g, m) + 1);
    return double(g.numNodes()) * double(span);
}

std::vector<std::size_t>
SuiteRunner::planJobOrder(const std::vector<SuiteLoop> &suite,
                          const Machine &m,
                          const std::vector<BatchJob> &jobs)
{
    // The ranking needs every loop's MII; warm the bounds memo across
    // the pool first so a cold large suite does not serialize that
    // phase on this thread (the memo is single-flight and
    // deterministic, so this only moves work).
    std::vector<std::size_t> distinctLoops;
    {
        std::vector<bool> seen(suite.size(), false);
        for (const BatchJob &job : jobs) {
            const std::size_t loop = std::size_t(job.loop);
            if (!seen[loop]) {
                seen[loop] = true;
                distinctLoops.push_back(loop);
            }
        }
    }
    parallelFor(distinctLoops.size(), [&](std::size_t k) {
        (void)mii(suite[distinctLoops[k]].graph, m);
    });

    // Heaviest-first. The costs are deterministic, and the sort is
    // stable with index-order tie-breaking, so the plan — like the
    // results — is identical at any thread count.
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::vector<double> cost(jobs.size(), 0.0);
    for (const std::size_t i : order)
        cost[i] = jobCost(suite, m, jobs[i]);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

std::vector<PipelineResult>
SuiteRunner::run(const std::vector<SuiteLoop> &suite, const Machine &m,
                 const std::vector<BatchJob> &jobs,
                 const RunOptions &opts)
{
    for (const BatchJob &job : jobs) {
        SWP_ASSERT(job.loop >= 0 && std::size_t(job.loop) < suite.size(),
                   "batch job references loop ", job.loop,
                   " outside the ", suite.size(), "-loop suite");
    }

    const std::vector<std::size_t> order = planJobOrder(suite, m, jobs);

    const bool verify = opts.verify || kAlwaysVerifyResults;
    const bool certify = opts.certify || opts.certificates != nullptr;
    std::vector<CertSummary> *certOut = opts.certificates;
    if (certOut)
        certOut->assign(jobs.size(), CertSummary{});

    std::vector<PipelineResult> results(jobs.size());
    dispatch(
        order.size(),
        [&]() -> Worker {
            // Per-worker scheduler objects, reused across every job
            // this worker executes (shared_ptr so the returned closure
            // owns them).
            std::shared_ptr<ModuloScheduler> hrms =
                makeScheduler(SchedulerKind::Hrms);
            std::shared_ptr<ModuloScheduler> ims =
                makeScheduler(SchedulerKind::Ims);
            return [this, &suite, &m, &jobs, &results, &order, verify,
                    certify, certOut, hrms, ims](std::size_t k) {
                const std::size_t i = order[k];
                const BatchJob &job = jobs[i];
                const Ddg &g = suite[std::size_t(job.loop)].graph;

                EvalContext ctx;
                ctx.scheduler = job.options.scheduler == SchedulerKind::Ims
                                    ? ims.get()
                                    : hrms.get();
                ctx.imsFallback = ims.get();
                ctx.knownMii = mii(g, m);
                ctx.memo = &scheduleMemo_;

                results[i] =
                    pipelineLoop(g, m, job.strategy, job.options, &ctx);
                if (verify) {
                    const VerifyReport report =
                        verifyResult(g, m, results[i]);
                    if (!report.ok()) {
                        SWP_FATAL("job ", i, " (loop '", g.name(),
                                  "'): illegal pipeline result:\n",
                                  report.describe());
                    }
                }
                if (certify) {
                    // Certify the graph the schedule refers to (the
                    // spill-transformed one for spilled results), at
                    // the achieved II, then validate the bundle with
                    // the independent checker and cross-check it
                    // against the achieved II/register count.
                    const Ddg &rg = results[i].graph();
                    const Certificate cert =
                        certifyLoop(rg, m, results[i].sched.ii());
                    const CertReport check = checkCertificate(rg, m, cert);
                    if (!check.ok()) {
                        SWP_FATAL("job ", i, " (loop '", g.name(),
                                  "'): optimality certificate rejected "
                                  "by its own checker:\n",
                                  check.describe());
                    }
                    const CertReport contra =
                        checkCertificateAgainstResult(cert, results[i]);
                    if (!contra.ok()) {
                        SWP_FATAL("job ", i, " (loop '", g.name(),
                                  "'): certificate contradicts the "
                                  "achieved result:\n",
                                  contra.describe());
                    }
                    if (certOut) {
                        (*certOut)[i] =
                            summarizeCertificate(cert, results[i]);
                    }
                }
            };
        });
    return results;
}

std::vector<double>
simulateWorkerLoadsStealing(const std::vector<double> &costs,
                            const std::vector<std::size_t> &order,
                            int workers)
{
    SWP_ASSERT(workers >= 1,
               "simulateWorkerLoadsStealing needs >= 1 worker");
    const std::size_t w = std::size_t(workers);

    // Seed exactly like dispatch(): round-robin plan positions, fronts
    // heaviest (plan order), backs the light tail.
    std::vector<std::deque<std::size_t>> queues(w);
    for (std::size_t k = 0; k < order.size(); ++k)
        queues[k % w].push_back(k);

    std::vector<double> load(w, 0.0);
    // Event model: the earliest-free worker claims next (ties broken by
    // worker index); a worker that finds every deque empty retires.
    using Slot = std::pair<double, int>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>> free;
    for (int i = 0; i < workers; ++i)
        free.push({0.0, i});
    while (!free.empty()) {
        const Slot slot = free.top();
        free.pop();
        const std::size_t self = std::size_t(slot.second);
        std::size_t k = 0;
        bool ok = false;
        if (!queues[self].empty()) {
            k = queues[self].front();
            queues[self].pop_front();
            ok = true;
        }
        for (std::size_t v = 1; !ok && v < w; ++v) {
            std::deque<std::size_t> &victim = queues[(self + v) % w];
            if (!victim.empty()) {
                k = victim.back();
                victim.pop_back();
                ok = true;
            }
        }
        if (!ok)
            continue; // Retire: indices are never re-inserted.
        const double cost = costs[order[k]];
        load[self] += cost;
        free.push({slot.first + cost, slot.second});
    }
    return load;
}

} // namespace swp
