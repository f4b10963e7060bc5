/**
 * @file
 * Text serialization of loop dependence graphs (.ddg format).
 *
 * The format is line oriented; '#' starts a comment. A stream may hold
 * any number of loops:
 *
 * @code
 * loop daxpy
 * iterations 1000
 * node Ld1 ld
 * node Mul mul
 * node Add add
 * node St  st
 * inv  alpha
 * edge Ld1 Mul reg 0
 * edge Mul Add reg 0
 * edge Add St  reg 0
 * edge Add Add reg 1     # loop-carried self dependence
 * use  alpha Mul
 * end
 * @endcode
 */

#ifndef SWP_WORKLOAD_DDGIO_HH
#define SWP_WORKLOAD_DDGIO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/suitegen.hh"

namespace swp
{

/** Parse every loop in a stream; throws FatalError on malformed input. */
std::vector<SuiteLoop> parseDdgStream(std::istream &in);

/** Parse a .ddg file from disk. */
std::vector<SuiteLoop> parseDdgFile(const std::string &path);

} // namespace swp

#endif // SWP_WORKLOAD_DDGIO_HH
