#include "util/cli.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hh"

namespace memsense
{

CliParser::CliParser(std::string program_in, std::string summary_in)
    : program(std::move(program_in)), summary(std::move(summary_in))
{
    addBool("help", "show this help");
}

void
CliParser::addString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    flags[name] = Flag{Kind::String, help, def, def, false};
}

void
CliParser::addDouble(const std::string &name, double def,
                     const std::string &help)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", def);
    flags[name] = Flag{Kind::Double, help, buf, buf, false};
}

void
CliParser::addInt(const std::string &name, int def,
                  const std::string &help)
{
    flags[name] = Flag{Kind::Int, help, std::to_string(def),
                       std::to_string(def), false};
}

void
CliParser::addBool(const std::string &name, const std::string &help)
{
    flags[name] = Flag{Kind::Bool, help, "false", "false", false};
}

bool
CliParser::validValue(Kind kind, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    if (kind == Kind::Int) {
        const long v = std::strtol(text.c_str(), &end, 10);
        return !text.empty() && *end == '\0' && errno == 0 &&
               v >= INT_MIN && v <= INT_MAX;
    }
    if (kind == Kind::Double) {
        const double v = std::strtod(text.c_str(), &end);
        return !text.empty() && *end == '\0' && std::isfinite(v);
    }
    return true;
}

bool
CliParser::parse(int argc, char **argv)
{
    // A rejected command line is never a help request, even when
    // --help came before the error.
    auto fail = [this](const std::string &message) {
        std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
        flags["help"].value = "false";
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            pos.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        auto it = flags.find(name);
        if (it == flags.end()) {
            printHelp();
            return fail("unknown flag --" + name);
        }
        Flag &f = it->second;
        if (f.kind == Kind::Bool) {
            f.value = has_value ? value : "true";
        } else {
            if (!has_value && i + 1 >= argc)
                return fail("flag --" + name + " needs a value");
            if (!has_value)
                value = argv[++i];
            if (!validValue(f.kind, value))
                return fail("flag --" + name + " needs a " +
                            (f.kind == Kind::Int ? "whole" : "finite") +
                            " number, got '" + value + "'");
            f.value = value;
        }
        f.set = true;
    }
    if (getBool("help")) {
        printHelp();
        return false;
    }
    return true;
}

const CliParser::Flag &
CliParser::find(const std::string &name, Kind kind) const
{
    auto it = flags.find(name);
    requireInvariant(it != flags.end(), "unregistered flag " + name);
    requireInvariant(it->second.kind == kind,
                     "flag " + name + " accessed with the wrong type");
    return it->second;
}

std::string
CliParser::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

double
CliParser::getDouble(const std::string &name) const
{
    return std::atof(find(name, Kind::Double).value.c_str());
}

int
CliParser::getInt(const std::string &name) const
{
    return std::atoi(find(name, Kind::Int).value.c_str());
}

bool
CliParser::getBool(const std::string &name) const
{
    return find(name, Kind::Bool).value == "true";
}

bool
CliParser::isSet(const std::string &name) const
{
    auto it = flags.find(name);
    return it != flags.end() && it->second.set;
}

void
CliParser::printHelp() const
{
    std::printf("%s — %s\n\nflags:\n", program.c_str(),
                summary.c_str());
    for (const auto &[name, f] : flags) {
        std::printf("  --%-18s %s (default: %s)\n", name.c_str(),
                    f.help.c_str(), f.def.c_str());
    }
}

} // namespace memsense
