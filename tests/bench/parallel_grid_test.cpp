// The bench harness's two job grids — the §4.2.1 tuning pass
// (tune_methods) and a table row (run_method_row) — must give the same
// numbers at any thread count: drivers print identical tables for every
// --threads value.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "core/gfunction.hpp"
#include "netlist/netlist.hpp"

namespace mcopt::bench {
namespace {

std::vector<netlist::Netlist> training_set() {
  auto instances = gola_instances();
  instances.resize(6);
  return instances;
}

TEST(ParallelGridTest, TuneMethodsScalesMatchAcrossThreadCounts) {
  const auto instances = training_set();
  const std::vector<core::GClass> classes{core::GClass::kSixTempAnnealing,
                                          core::GClass::kGOne,
                                          core::GClass::kCubicDiff};
  const auto serial = tune_methods(classes, instances, /*goto_start=*/false,
                                   80.0, 2.0, /*num_threads=*/1);
  const auto parallel = tune_methods(classes, instances, /*goto_start=*/false,
                                     80.0, 2.0, /*num_threads=*/4);
  ASSERT_EQ(serial.size(), classes.size());
  ASSERT_EQ(parallel.size(), classes.size());
  for (std::size_t m = 0; m < classes.size(); ++m) {
    EXPECT_EQ(parallel[m].name, serial[m].name);
    EXPECT_EQ(parallel[m].scale, serial[m].scale) << serial[m].name;
  }
}

TEST(ParallelGridTest, RunMethodRowTotalsMatchAcrossThreadCounts) {
  const auto instances = training_set();
  const Method method{"Six Temperature Annealing",
                      core::GClass::kSixTempAnnealing, 1.5};
  for (const bool figure2 : {false, true}) {
    TableRunConfig config;
    config.budgets = {100, 250, 400};
    config.figure2 = figure2;
    config.num_threads = 1;
    const auto serial = run_method_row(method, instances, config);
    config.num_threads = 4;
    const auto parallel = run_method_row(method, instances, config);
    ASSERT_EQ(serial.size(), config.budgets.size());
    EXPECT_EQ(parallel, serial) << (figure2 ? "Figure 2" : "Figure 1");
  }
}

}  // namespace
}  // namespace mcopt::bench
