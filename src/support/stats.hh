/**
 * @file
 * The wall-clock stopwatch the evaluation harnesses time runs with.
 */

#ifndef SWP_SUPPORT_STATS_HH
#define SWP_SUPPORT_STATS_HH

#include <cstdint>

namespace swp
{

/**
 * A wall-clock stopwatch (monotonic), reporting elapsed seconds.
 */
class Stopwatch
{
  public:
    Stopwatch();
    /** Seconds since construction. */
    double seconds() const;

  private:
    std::uint64_t startNs_;
};

} // namespace swp

#endif // SWP_SUPPORT_STATS_HH
