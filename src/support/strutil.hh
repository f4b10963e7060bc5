/**
 * @file
 * Small string utilities shared by the .ddg parser and table printers.
 */

#ifndef SWP_SUPPORT_STRUTIL_HH
#define SWP_SUPPORT_STRUTIL_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace swp
{

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** Split on arbitrary whitespace, dropping empty fields. */
std::vector<std::string> splitWs(const std::string &s);

/**
 * Parse a 64-bit unsigned value (decimal, or hex/octal with the usual
 * prefixes). Rejects empty input, sign characters, trailing garbage,
 * and overflow. Returns false without touching out on failure.
 */
bool parseUint64(const std::string &s, std::uint64_t &out);

/** Parse a base-10 integer in [lo, hi]; false (out untouched) otherwise. */
bool parseIntInRange(const std::string &s, int lo, int hi, int &out);

/** 64-bit variant of parseIntInRange. */
bool parseInt64InRange(const std::string &s, long long lo, long long hi,
                       long long &out);

/** Concatenate a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
strCat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** JSON string literal: quoted, with control characters escaped. */
std::string jsonQuote(const std::string &s);

} // namespace swp

#endif // SWP_SUPPORT_STRUTIL_HH
