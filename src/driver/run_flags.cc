#include "driver/run_flags.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "machine/machdesc.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

bool
parseRunFlag(int argc, const char *const *argv, int &i, RunFlags &flags,
             std::string &error)
{
    const char *flag = argv[i];
    // The flag's value, or nullptr (with `error` set) when it is missing.
    const auto value = [&]() -> const char * {
        if (i + 1 < argc)
            return argv[++i];
        error = std::string("missing argument for ") + flag;
        return nullptr;
    };

    if (!std::strcmp(flag, "--threads")) {
        if (const char *text = value()) {
            if (!std::strcmp(text, "auto"))
                flags.threads = 0;
            else if (!parseIntInRange(text, 0, 4096, flags.threads))
                error = std::string("bad --threads count ") + text;
        }
    } else if (!std::strcmp(flag, "--seed")) {
        if (const char *text = value()) {
            std::uint64_t seed = 0;
            if (parseUint64(text, seed))
                flags.seed = seed;
            else
                error = std::string("bad --seed value ") + text;
        }
    } else if (!std::strcmp(flag, "--verify")) {
        flags.verify = true;
    } else if (!std::strcmp(flag, "--certify")) {
        flags.certify = true;
    } else if (!std::strcmp(flag, "--machine")) {
        if (const char *text = value()) {
            try {
                flags.machine = machineFromSpec(text);
            } catch (const FatalError &err) {
                error = err.what();
            }
        }
    } else {
        return false;
    }
    return true;
}

bool
probeWritable(const std::string &path)
{
    const bool existed = static_cast<bool>(std::ifstream(path));
    if (!std::ofstream(path, std::ios::app))
        return false;
    if (!existed)
        std::remove(path.c_str());
    return true;
}

} // namespace swp
