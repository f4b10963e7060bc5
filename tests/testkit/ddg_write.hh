/**
 * @file
 * The .ddg text of a loop (workload/ddgio's format), for round-trip
 * tests of the parser.
 */

#ifndef SWP_TESTKIT_DDG_WRITE_HH
#define SWP_TESTKIT_DDG_WRITE_HH

#include <iosfwd>

#include "workload/suitegen.hh"

namespace swp
{

/** Serialize one loop (only live edges and unspilled invariants). */
void writeDdg(std::ostream &out, const SuiteLoop &loop);

} // namespace swp

#endif // SWP_TESTKIT_DDG_WRITE_HH
