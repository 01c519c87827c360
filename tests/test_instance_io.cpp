#include "io/instance_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/generator.hpp"

namespace flowsched {
namespace {

TEST(InstanceIo, ParsesBasicFile) {
  const auto inst = parse_instance_string(
      "# comment\n"
      "machines 3\n"
      "task 0 1.5 *\n"
      "task 2 1 1,3\n"
      "task 1 2 M2\n");
  EXPECT_EQ(inst.m(), 3);
  EXPECT_EQ(inst.n(), 3);
  // Sorted by release: 0, 1, 2.
  EXPECT_DOUBLE_EQ(inst.task(0).proc, 1.5);
  EXPECT_EQ(inst.task(0).eligible.size(), 3);
  EXPECT_EQ(inst.task(1).eligible, ProcSet({1}));      // "M2" -> index 1
  EXPECT_EQ(inst.task(2).eligible, ProcSet({0, 2}));   // "1,3"
}

TEST(InstanceIo, IgnoresBlankLinesAndComments) {
  const auto inst = parse_instance_string(
      "\n  \nmachines 2 # trailing comment\n\n# whole-line comment\n"
      "task 0 1 *\n");
  EXPECT_EQ(inst.n(), 1);
}

TEST(InstanceIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_instance_string(""), std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_instance_string("task 0 1 *\nmachines 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\nmachines 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask -1 1 *\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 0 *\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 3\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 x\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 1,\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 ,1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 1,,2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\ntask 0 1 1 extra\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_instance_string("machines 2\nbogus 1\n"),
               std::invalid_argument);
}

TEST(InstanceIo, ErrorsCarryLineNumbers) {
  try {
    parse_instance_string("machines 2\ntask 0 1 7\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(InstanceIo, RoundTripsRandomInstances) {
  Rng rng(44);
  RandomInstanceOptions opts;
  opts.m = 5;
  opts.n = 40;
  opts.sets = RandomSets::kArbitrary;
  const auto inst = random_instance(opts, rng);
  const auto reparsed = parse_instance_string(instance_to_string(inst));
  ASSERT_EQ(reparsed.n(), inst.n());
  ASSERT_EQ(reparsed.m(), inst.m());
  for (int i = 0; i < inst.n(); ++i) {
    EXPECT_DOUBLE_EQ(reparsed.task(i).release, inst.task(i).release);
    EXPECT_DOUBLE_EQ(reparsed.task(i).proc, inst.task(i).proc);
    EXPECT_EQ(reparsed.task(i).eligible, inst.task(i).eligible);
  }
}

TEST(InstanceIo, FullSetSerializesAsStar) {
  const auto inst = Instance::unrestricted(3, {{0.0, 1.0}});
  EXPECT_NE(instance_to_string(inst).find("task 0 1 *"), std::string::npos);
}

TEST(InstanceIo, ScheduleCsvHasAllRows) {
  const auto inst = Instance::unrestricted(2, {{0.0, 1.0}, {0.5, 2.0}});
  Schedule sched(inst);
  sched.assign(0, 0, 0.0);
  sched.assign(1, 1, 0.5);
  std::ostringstream out;
  write_schedule_csv(out, sched);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("task,release,proc,machine,start,completion,flow"),
            std::string::npos);
  EXPECT_NE(csv.find("0,0,1,1,0,1,1"), std::string::npos);
  EXPECT_NE(csv.find("1,0.5,2,2,0.5,2.5,2"), std::string::npos);
}

TEST(InstanceIo, LoadInstanceMissingFileThrows) {
  EXPECT_THROW(load_instance("/nonexistent/path/instance.txt"),
               std::runtime_error);
}

TEST(ScheduleStretch, MatchesDefinition) {
  const auto inst = Instance::unrestricted(1, {{0.0, 2.0}, {0.0, 1.0}});
  Schedule sched(inst);
  sched.assign(0, 0, 0.0);  // flow 2, stretch 1
  sched.assign(1, 0, 2.0);  // flow 3, stretch 3
  EXPECT_DOUBLE_EQ(sched.stretch(0), 1.0);
  EXPECT_DOUBLE_EQ(sched.stretch(1), 3.0);
  EXPECT_DOUBLE_EQ(sched.max_stretch(), 3.0);
}

}  // namespace
}  // namespace flowsched
