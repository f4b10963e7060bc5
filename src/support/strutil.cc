#include "support/strutil.hh"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "support/diag.hh"

namespace swp
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::vector<std::string>
splitWs(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        std::size_t start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i]))) {
            ++i;
        }
        if (i > start)
            out.push_back(s.substr(start, i - start));
    }
    return out;
}

bool
parseUint64(const std::string &s, std::uint64_t &out)
{
    // strtoull skips whitespace and silently wraps negative input, so
    // insist the string starts with a digit (which also covers "0x...").
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseIntInRange(const std::string &s, int lo, int hi, int &out)
{
    if (s.empty() ||
        (s[0] != '-' && !std::isdigit(static_cast<unsigned char>(s[0]))))
        return false;
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE || v < lo || v > hi)
        return false;
    out = int(v);
    return true;
}

bool
parseInt64InRange(const std::string &s, long long lo, long long hi,
                  long long &out)
{
    if (s.empty() ||
        (s[0] != '-' && !std::isdigit(static_cast<unsigned char>(s[0]))))
        return false;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out + "\"";
}

} // namespace swp
