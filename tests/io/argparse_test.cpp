#include "bbb/io/argparse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace bbb::io {
namespace {

ArgParser sample_parser() {
  ArgParser p("prog", "test parser");
  p.add_flag("n", std::uint64_t{100}, "bins");
  p.add_flag("rate", 0.5, "a rate");
  p.add_flag("format", std::string("ascii"), "output format");
  return p;
}

TEST(ArgParser, DefaultsWhenNoArgs) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_u64("n"), 100u);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_EQ(p.get_string("format"), "ascii");
}

TEST(ArgParser, EqualsForm) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n=42", "--rate=1.25", "--format=csv"};
  EXPECT_TRUE(p.parse(4, argv));
  EXPECT_EQ(p.get_u64("n"), 42u);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 1.25);
  EXPECT_EQ(p.get_string("format"), "csv");
}

TEST(ArgParser, SpaceForm) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n", "7"};
  EXPECT_TRUE(p.parse(3, argv));
  EXPECT_EQ(p.get_u64("n"), 7u);
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParser, HelpTextListsFlags) {
  const std::string help = sample_parser().help();
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("--rate"), std::string::npos);
  EXPECT_NE(help.find("default: 100"), std::string::npos);
}

TEST(ArgParser, UnknownFlagThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, MalformedValuesThrow) {
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--n=abc"};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
  }
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--n=12junk"};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
  }
  {
    ArgParser p = sample_parser();
    const char* argv[] = {"prog", "--rate=..5"};
    EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
  }
}

TEST(ArgParser, MissingValueThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, NonFlagArgumentThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW((void)p.parse(2, argv), std::invalid_argument);
}

TEST(ArgParser, TypeMismatchThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_u64("format"), std::invalid_argument);
  EXPECT_THROW((void)p.get_string("n"), std::invalid_argument);
  // get_double on an integer flag is allowed (widening).
  EXPECT_DOUBLE_EQ(p.get_double("n"), 100.0);
}

TEST(ArgParser, IntegerFlagsTakeDigitsOnly) {
  // stoull alone read "-1" as 2^64 - 1 (an endless --m) and " +7" as 7.
  for (const char* value : {"-1", "+5", " 5", "5 ", "", "18446744073709551616"}) {
    ArgParser p = sample_parser();
    const std::string arg = std::string("--n=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    try {
      (void)p.parse(2, argv);
      ADD_FAILURE() << "'" << value << "' was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--n"), std::string::npos) << e.what();
    }
  }
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n=18446744073709551615"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.get_u64("n"), 18446744073709551615u);
}

TEST(ArgParser, U32AcceptsTheFullRange) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog", "--n=4294967295"};
  ASSERT_TRUE(p.parse(2, argv));
  EXPECT_EQ(p.get_u32("n"), 4294967295u);
  EXPECT_EQ(p.get_u64("n"), 4294967295u);
}

TEST(ArgParser, U32RejectsValuesAboveUint32MaxInsteadOfTruncating) {
  // 2^32 + 1 used to run as 1, 2^32 + 64 as 64; 2^64 - 1 as UINT32_MAX.
  for (const char* value : {"4294967296", "4294967297", "4294967360",
                            "18446744073709551615"}) {
    ArgParser p = sample_parser();
    const std::string arg = std::string("--n=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.get_u64("n"), std::stoull(value));
    try {
      (void)p.get_u32("n");
      ADD_FAILURE() << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--n"), std::string::npos) << what;
      EXPECT_NE(what.find(value), std::string::npos) << what;
    }
  }
}

TEST(ArgParser, U32TypeMismatchThrows) {
  ArgParser p = sample_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_u32("format"), std::invalid_argument);
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser p("prog", "dup");
  p.add_flag("x", std::uint64_t{1}, "first");
  EXPECT_THROW(p.add_flag("x", 2.0, "second"), std::invalid_argument);
}

}  // namespace
}  // namespace bbb::io
