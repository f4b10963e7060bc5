#include "support/stats.hh"

#include <chrono>

namespace swp
{

namespace
{

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

Stopwatch::Stopwatch() : startNs_(nowNs()) {}

double
Stopwatch::seconds() const
{
    return double(nowNs() - startNs_) * 1e-9;
}

} // namespace swp
