/**
 * @file
 * Machine variants for tests, built the way every described machine is
 * built: from machine-description text through the parser.
 */

#ifndef SWP_TESTKIT_MACHINES_HH
#define SWP_TESTKIT_MACHINES_HH

#include <string>
#include <vector>

#include "machine/machine.hh"

namespace swp
{

/**
 * m with some directives of its description replaced. Each line is a
 * `machine`, `class` or `op` directive; a `class` or `op` line replaces
 * the one for the same class or opcode ("op div divsqrt 3", "class
 * mult 1 nonpipelined"), and a `machine` line renames the machine.
 * Throws FatalError if a line replaces nothing or the parser rejects
 * the result.
 */
Machine editedMachine(const Machine &m,
                      const std::vector<std::string> &lines);

} // namespace swp

#endif // SWP_TESTKIT_MACHINES_HH
