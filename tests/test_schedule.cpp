#include "model/schedule.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "support/checks.hpp"

namespace flowsched {
namespace {

Instance two_machine_instance() {
  return Instance::unrestricted(2, {{0.0, 2.0}, {1.0, 1.0}, {1.0, 3.0}});
}

TEST(Schedule, FlowAndCompletion) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 1, 1.0);
  s.assign(2, 0, 2.0);
  EXPECT_DOUBLE_EQ(s.completion(0), 2.0);
  EXPECT_DOUBLE_EQ(s.flow(0), 2.0);
  EXPECT_DOUBLE_EQ(s.flow(1), 1.0);
  EXPECT_DOUBLE_EQ(s.flow(2), 4.0);  // starts 2, completes 5, released 1
  EXPECT_DOUBLE_EQ(s.max_flow(), 4.0);
  EXPECT_DOUBLE_EQ(s.max_flow_prefix(2), 2.0);
  EXPECT_DOUBLE_EQ(s.mean_flow(), (2.0 + 1.0 + 4.0) / 3.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
}

TEST(Schedule, MachineLoads) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 1, 1.0);
  s.assign(2, 0, 2.0);
  const auto loads = machine_loads(s);
  EXPECT_DOUBLE_EQ(loads[0], 5.0);
  EXPECT_DOUBLE_EQ(loads[1], 1.0);
}

TEST(Schedule, ValidateAcceptsFeasible) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 1, 1.0);
  s.assign(2, 0, 2.0);
  EXPECT_TRUE(s.validate().ok()) << s.validate().str();
}

TEST(Schedule, ValidateCatchesUnassigned) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  const auto v = s.validate();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.violations.size(), 2u);
}

TEST(Schedule, ValidateCatchesEarlyStart) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 1, 0.5);  // released at 1.0
  s.assign(2, 1, 2.0);
  const auto v = s.validate();
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.str().find("before release"), std::string::npos);
}

TEST(Schedule, ValidateCatchesOverlap) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  s.assign(0, 0, 0.0);   // [0, 2)
  s.assign(1, 0, 1.0);   // [1, 2) overlaps
  s.assign(2, 1, 1.0);
  const auto v = s.validate();
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.str().find("overlap"), std::string::npos);
}

TEST(Schedule, ValidateAllowsTouchingIntervals) {
  const auto inst = Instance::unrestricted(1, {{0.0, 1.0}, {0.0, 1.0}});
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 0, 1.0);  // back-to-back
  EXPECT_TRUE(s.validate().ok()) << s.validate().str();
}

TEST(Schedule, ValidateCatchesIneligibleMachine) {
  std::vector<Task> tasks{{.release = 0, .proc = 1, .eligible = ProcSet({1})}};
  const Instance inst(2, std::move(tasks));
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  const auto v = s.validate();
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.str().find("not in processing set"), std::string::npos);
}

TEST(Schedule, AssignRejectsBadMachine) {
  const auto inst = two_machine_instance();
  Schedule s(inst);
  EXPECT_THROW(s.assign(0, 2, 0.0), std::invalid_argument);
  EXPECT_THROW(s.assign(0, -1, 0.0), std::invalid_argument);
}

TEST(Schedule, OwningConstructorKeepsInstanceAlive) {
  auto inst = std::make_shared<Instance>(
      Instance::unrestricted(1, {{0.0, 1.0}}));
  Schedule s(inst);
  inst.reset();  // schedule holds the only reference now
  s.assign(0, 0, 0.0);
  EXPECT_DOUBLE_EQ(s.max_flow(), 1.0);
  EXPECT_TRUE(s.validate().ok());
}

TEST(Schedule, GanttShowsOccupancy) {
  const auto inst = Instance::unrestricted(2, {{0.0, 1.0}, {0.0, 2.0}});
  Schedule s(inst);
  s.assign(0, 0, 0.0);
  s.assign(1, 1, 0.0);
  const std::string g = s.gantt();
  EXPECT_NE(g.find("M1"), std::string::npos);
  EXPECT_NE(g.find("M2"), std::string::npos);
  EXPECT_NE(g.find('0'), std::string::npos);
  EXPECT_NE(g.find('1'), std::string::npos);
}

}  // namespace
}  // namespace flowsched
