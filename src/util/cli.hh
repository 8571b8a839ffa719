/**
 * @file
 * Minimal command-line flag parser for the memsense tools.
 *
 * Supports `--flag value`, `--flag=value`, boolean `--flag`, and
 * positional arguments, with generated help text. Deliberately tiny —
 * just enough for the CLI and the bench binaries — and dependency
 * free.
 */

#ifndef MEMSENSE_UTIL_CLI_HH
#define MEMSENSE_UTIL_CLI_HH

#include <map>
#include <string>
#include <vector>

namespace memsense
{

/** Declarative flag parser. */
class CliParser
{
  public:
    /**
     * @param program program name for the usage line
     * @param summary one-line description
     */
    CliParser(std::string program, std::string summary);

    /** Register a string flag with a default. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register a numeric flag with a default. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);

    /** Register an integer flag with a default. */
    void addInt(const std::string &name, int def,
                const std::string &help);

    /** Register a boolean flag (presence = true). */
    void addBool(const std::string &name, const std::string &help);

    /**
     * Parse argv. Returns false (after printing usage) on `--help` or
     * on a malformed/unknown flag; getBool("help") tells them apart.
     * Int values must be whole numbers in `int` range and Double
     * values finite numbers, each consumed to the last character.
     */
    bool parse(int argc, char **argv);

    /** @{ Typed accessors (flag must have been registered). */
    std::string getString(const std::string &name) const;
    double getDouble(const std::string &name) const;
    int getInt(const std::string &name) const;
    bool getBool(const std::string &name) const;
    /** @} */

    /** True when the flag appeared on the command line. */
    bool isSet(const std::string &name) const;

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const { return pos; }

    /** Print usage/help to stdout. */
    void printHelp() const;

  private:
    enum class Kind
    {
        String,
        Double,
        Int,
        Bool,
    };

    struct Flag
    {
        Kind kind;
        std::string help;
        std::string value; ///< current value, textual
        std::string def;   ///< default, textual (for help)
        bool set = false;
    };

    const Flag &find(const std::string &name, Kind kind) const;
    /** True when @p text parses, whole, as a value of @p kind. */
    static bool validValue(Kind kind, const std::string &text);

    std::string program;
    std::string summary;
    std::map<std::string, Flag> flags;
    std::vector<std::string> pos;
};

} // namespace memsense

#endif // MEMSENSE_UTIL_CLI_HH
