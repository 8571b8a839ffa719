/**
 * @file
 * Tests for the command-line flag parser.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/cli.hh"
#include "util/error.hh"

namespace memsense
{
namespace
{

/** argv builder for tests. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : storage(std::move(args))
    {
        ptrs.push_back(const_cast<char *>("prog"));
        for (auto &s : storage)
            ptrs.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    char **argv() { return ptrs.data(); }

  private:
    std::vector<std::string> storage;
    std::vector<char *> ptrs;
};

CliParser
makeParser()
{
    CliParser cli("test", "test parser");
    cli.addString("name", "default", "a string");
    cli.addDouble("ratio", 0.5, "a double");
    cli.addInt("count", 3, "an int");
    cli.addBool("verbose", "a bool");
    return cli;
}

TEST(Cli, DefaultsApply)
{
    CliParser cli = makeParser();
    Argv a({});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    EXPECT_EQ(cli.getString("name"), "default");
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 0.5);
    EXPECT_EQ(cli.getInt("count"), 3);
    EXPECT_FALSE(cli.getBool("verbose"));
    EXPECT_FALSE(cli.isSet("name"));
}

TEST(Cli, SpaceSeparatedValues)
{
    CliParser cli = makeParser();
    Argv a({"--name", "abc", "--ratio", "1.25", "--count", "9"});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    EXPECT_EQ(cli.getString("name"), "abc");
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 1.25);
    EXPECT_EQ(cli.getInt("count"), 9);
    EXPECT_TRUE(cli.isSet("name"));
}

TEST(Cli, EqualsSyntaxAndBool)
{
    CliParser cli = makeParser();
    Argv a({"--name=xyz", "--verbose", "--ratio=2.5"});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    EXPECT_EQ(cli.getString("name"), "xyz");
    EXPECT_TRUE(cli.getBool("verbose"));
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), 2.5);
}

TEST(Cli, PositionalArgumentsCollected)
{
    CliParser cli = makeParser();
    Argv a({"first", "--count", "2", "second"});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "first");
    EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Cli, UnknownFlagFails)
{
    CliParser cli = makeParser();
    Argv a({"--nope", "1"});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
}

TEST(Cli, MissingValueFails)
{
    CliParser cli = makeParser();
    Argv a({"--count"});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
}

TEST(Cli, MalformedNumbersFail)
{
    const std::vector<std::vector<std::string>> inputs = {
        {"--count", "abc"},   {"--count", "4x"},
        {"--count", "1.5"},   {"--count", "99999999999"},
        {"--count="},         {"--ratio", "nan"},
        {"--ratio", "1e999"}, {"--ratio", "2.7x"},
        {"--ratio="}};
    for (const auto &args : inputs) {
        CliParser cli = makeParser();
        Argv a(args);
        EXPECT_FALSE(cli.parse(a.argc(), a.argv())) << args[0];
        EXPECT_FALSE(cli.getBool("help")) << args[0];
    }
}

TEST(Cli, WholeNumbersInRangeParse)
{
    CliParser cli = makeParser();
    Argv a({"--count", "-2147483648", "--ratio=-1e3"});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    EXPECT_EQ(cli.getInt("count"), -2147483647 - 1);
    EXPECT_DOUBLE_EQ(cli.getDouble("ratio"), -1000.0);
}

TEST(Cli, ErrorAfterHelpIsNotAHelpRequest)
{
    CliParser cli = makeParser();
    Argv a({"--help", "--nope"});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
    EXPECT_FALSE(cli.getBool("help"));
}

TEST(Cli, HelpShortCircuits)
{
    CliParser cli = makeParser();
    Argv a({"--help"});
    EXPECT_FALSE(cli.parse(a.argc(), a.argv()));
}

TEST(Cli, WrongTypeAccessThrows)
{
    CliParser cli = makeParser();
    Argv a({});
    ASSERT_TRUE(cli.parse(a.argc(), a.argv()));
    EXPECT_THROW(cli.getDouble("name"), LogicError);
    EXPECT_THROW(cli.getString("missing"), LogicError);
}

} // anonymous namespace
} // namespace memsense
