#include "testkit/steal_model.hh"

#include <deque>
#include <functional>
#include <queue>
#include <utility>

#include "support/diag.hh"

namespace swp
{

std::vector<double>
simulateWorkerLoadsStealing(const std::vector<double> &costs,
                            const std::vector<std::size_t> &order,
                            int workers)
{
    SWP_ASSERT(workers >= 1,
               "simulateWorkerLoadsStealing needs >= 1 worker");
    const std::size_t w = std::size_t(workers);

    // Seed exactly like SuiteRunner::dispatch(): round-robin plan
    // positions, fronts heaviest (plan order), backs the light tail.
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
