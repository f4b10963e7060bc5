#include "sched/sched_memo.hh"

namespace swp
{

std::optional<Schedule>
ScheduleMemo::scheduleAt(ModuloScheduler &inner, SchedulerKind kind,
                         const Ddg &g, const Machine &m, int ii)
{
    const Key key{graphFingerprint(g), m.fingerprint(), ii, int(kind)};
    CachedProbe probe = cache_.getOrCompute(
        key,
        [&]() {
            return CachedProbe{inner.scheduleAt(g, m, ii),
                               KeyWitness(verifyKeys_, g, m)};
        },
        [&](const CachedProbe &hit) {
            hit.witness.check("schedule memo", g, m);
        });
    return std::move(probe.sched);
}

} // namespace swp
