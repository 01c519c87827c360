#include "util/args.hpp"

#include <gtest/gtest.h>

namespace flowsched {
namespace {

ArgParser parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, CommandAndOptions) {
  const auto args = parse({"run", "--algo", "eft-min", "--csv"});
  EXPECT_EQ(args.command(), "run");
  EXPECT_EQ(args.get("algo", ""), "eft-min");
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("gantt"));
}

TEST(ArgParser, NoCommand) {
  const auto args = parse({"--m", "4"});
  EXPECT_EQ(args.command(), "");
  EXPECT_EQ(args.integer("m", 0), 4);
}

TEST(ArgParser, DefaultsApplyWhenAbsent) {
  const auto args = parse({"gen"});
  EXPECT_EQ(args.get("strategy", "overlapping"), "overlapping");
  EXPECT_DOUBLE_EQ(args.num("lambda", 7.5), 7.5);
  EXPECT_EQ(args.integer("k", 3), 3);
}

TEST(ArgParser, NumericValidation) {
  const auto args = parse({"x", "--rate", "2.5", "--count", "7", "--bad", "abc"});
  EXPECT_DOUBLE_EQ(args.num("rate", 0), 2.5);
  EXPECT_EQ(args.integer("count", 0), 7);
  EXPECT_THROW(args.num("bad", 0), std::invalid_argument);
  EXPECT_THROW(args.integer("rate", 0), std::invalid_argument);  // 2.5 not int
}

TEST(ArgParser, IntegerRejectsNanAndOutOfRange) {
  const auto args = parse({"x", "--nan", "nan", "--inf", "inf", "--big",
                           "3e9", "--low", "-3e9", "--neg", "-7"});
  EXPECT_THROW(args.integer("nan", 0), std::invalid_argument);
  EXPECT_THROW(args.integer("inf", 0), std::invalid_argument);
  EXPECT_THROW(args.integer("big", 0), std::invalid_argument);
  EXPECT_THROW(args.integer("low", 0), std::invalid_argument);
  EXPECT_EQ(args.integer("neg", 0), -7);
}

TEST(ArgParser, Uint64KeepsEveryDigit) {
  // 2^53 + 1 has no double; the accessor must not round it.
  const auto args = parse({"x", "--seed", "9007199254740993", "--max",
                           "18446744073709551615", "--zero", "0"});
  EXPECT_EQ(args.uint64("seed", 1), 9007199254740993ULL);
  EXPECT_EQ(args.uint64("max", 1), 18446744073709551615ULL);
  EXPECT_EQ(args.uint64("zero", 1), 0u);
  EXPECT_EQ(args.uint64("absent", 42), 42u);
}

TEST(ArgParser, Uint64RejectsSignsFractionsAndOverflow) {
  for (const char* bad :
       {"1.7", "-5", "+5", "1e30", "18446744073709551616",
        "99999999999999999999", "abc", "7x", " 7", "0x10", "nan"}) {
    const auto args = parse({"x", "--seed", bad});
    EXPECT_THROW(args.uint64("seed", 1), std::invalid_argument) << bad;
  }
  // A bare flag has no value to parse.
  EXPECT_THROW(parse({"x", "--seed"}).uint64("seed", 1), std::invalid_argument);
}

TEST(ArgParser, RejectsPositionalTokens) {
  EXPECT_THROW(parse({"run", "stray"}), std::invalid_argument);
  EXPECT_THROW(parse({"run", "--ok", "1", "--", "x"}), std::invalid_argument);
}

TEST(ArgParser, FlagFollowedByFlag) {
  const auto args = parse({"run", "--csv", "--gantt"});
  EXPECT_TRUE(args.has("csv"));
  EXPECT_TRUE(args.has("gantt"));
  EXPECT_EQ(args.get("csv", "x"), "");
}

TEST(ArgParser, PositiveRejectsCountsBelowOne) {
  const auto args = parse({"x", "--reps", "0", "--requests", "-3", "--n", "2"});
  EXPECT_EQ(args.positive("n", 1), 2);
  EXPECT_EQ(args.positive("absent", 5), 5);
  try {
    args.positive("reps", 1);
    FAIL() << "--reps 0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--reps"), std::string::npos);
  }
  EXPECT_THROW(args.positive("requests", 1), std::invalid_argument);
}

TEST(ArgParser, RejectUnknownCatchesTypos) {
  const auto args = parse({"run", "--algo", "fifo", "--sed", "1"});
  args.get("algo", "");
  EXPECT_THROW(args.reject_unknown(), std::invalid_argument);
}

TEST(ArgParser, RejectUnknownPassesWhenAllQueried) {
  const auto args = parse({"run", "--algo", "fifo"});
  args.get("algo", "");
  EXPECT_NO_THROW(args.reject_unknown());
}

}  // namespace
}  // namespace flowsched
