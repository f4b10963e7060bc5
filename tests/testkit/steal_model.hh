/**
 * @file
 * A deterministic model of SuiteRunner's work-stealing pool.
 *
 * The load-balance properties of the pool ("heaviest-first ordering
 * shrinks the makespan of a heavy-tailed grid") depend on timing when
 * asserted on real threads. This model replays the same claiming
 * discipline on known job costs instead, so the properties can be
 * asserted without racing anything.
 */

#ifndef SWP_TESTKIT_STEAL_MODEL_HH
#define SWP_TESTKIT_STEAL_MODEL_HH

#include <cstddef>
#include <vector>

namespace swp
{

/**
 * Simulate the pool's work-stealing discipline: the jobs of `order`
 * (job k costing costs[order[k]]) are dealt round-robin into
 * per-worker deques, each worker pops its own front and an idle worker
 * steals the back of the next non-empty victim (scanning from its own
 * slot). Returns each worker's total simulated busy time; same model
 * as SuiteRunner's claim path.
 */
std::vector<double>
simulateWorkerLoadsStealing(const std::vector<double> &costs,
                            const std::vector<std::size_t> &order,
                            int workers);

} // namespace swp

#endif // SWP_TESTKIT_STEAL_MODEL_HH
