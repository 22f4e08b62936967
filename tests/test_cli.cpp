#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sweep::util {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_flag("full", "run at paper scale");
  cli.add_option("procs", "8,16", "processor counts");
  cli.add_option("scale", "0.5", "mesh scale");
  cli.add_option("name", "tetonly", "mesh name");
  return cli;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.flag("full"));
  EXPECT_DOUBLE_EQ(cli.real("scale"), 0.5);
  EXPECT_EQ(cli.str("name"), "tetonly");
  EXPECT_EQ(cli.int_list("procs"), (std::vector<std::int64_t>{8, 16}));
}

TEST(Cli, ParsesSeparateAndInlineValues) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--full", "--scale", "1.25", "--name=long"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_TRUE(cli.flag("full"));
  EXPECT_DOUBLE_EQ(cli.real("scale"), 1.25);
  EXPECT_EQ(cli.str("name"), "long");
}

TEST(Cli, ParsesIntegerLists) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--procs", "1,2,4,8,512"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.int_list("procs"),
            (std::vector<std::int64_t>{1, 2, 4, 8, 512}));
  // "0.5" is not an integer: strict parsing reports it instead of the old
  // silent strtoll -> 0.
  EXPECT_THROW((void)cli.integer("scale"), std::invalid_argument);
}

TEST(Cli, IntegerRejectsGarbage) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--name=abc", "--scale", "12x"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_THROW((void)cli.integer("name"), std::invalid_argument);   // "abc"
  EXPECT_THROW((void)cli.integer("scale"), std::invalid_argument);  // "12x"
  EXPECT_THROW((void)cli.real("name"), std::invalid_argument);
}

TEST(Cli, IntegerRejectsEmptyAndOverflow) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--name=", "--scale",
                        "99999999999999999999999999"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_THROW((void)cli.integer("name"), std::invalid_argument);
  EXPECT_THROW((void)cli.integer("scale"), std::invalid_argument);
}

TEST(Cli, RealRejectsTrailingGarbage) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--scale", "0.5.3"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW((void)cli.real("scale"), std::invalid_argument);
  EXPECT_THROW((void)cli.real("name"), std::invalid_argument);  // "tetonly"
}

TEST(Cli, IntListRejectsMalformedElements) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--procs", "1,,2"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.int_list("procs"), std::invalid_argument);

  CliParser cli2 = make_parser();
  const char* argv2[] = {"prog", "--procs", "1,abc"};
  ASSERT_TRUE(cli2.parse(3, argv2));
  EXPECT_THROW(cli2.int_list("procs"), std::invalid_argument);

  CliParser cli3 = make_parser();
  const char* argv3[] = {"prog", "--procs", "1,2,"};
  ASSERT_TRUE(cli3.parse(3, argv3));
  EXPECT_THROW(cli3.int_list("procs"), std::invalid_argument);
}

TEST(Cli, EmptyStringIsEmptyIntList) {
  CliParser cli("prog", "t");
  cli.add_option("list", "", "optional list");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_TRUE(cli.int_list("list").empty());
}

TEST(Cli, FlagRejectsNonBooleanInlineValue) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--full=yes"};
  EXPECT_FALSE(cli.parse(2, argv));  // error, not a silent false

  CliParser cli2 = make_parser();
  const char* argv2[] = {"prog", "--full=false"};
  ASSERT_TRUE(cli2.parse(2, argv2));
  EXPECT_FALSE(cli2.flag("full"));

  CliParser cli3 = make_parser();
  const char* argv3[] = {"prog", "--full=1"};
  ASSERT_TRUE(cli3.parse(2, argv3));
  EXPECT_TRUE(cli3.flag("full"));
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
}

TEST(Cli, RejectsMissingValue) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--scale"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RejectsPositional) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "oops"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

}  // namespace
}  // namespace sweep::util
