#include <gtest/gtest.h>

#include "accel/cost_function.h"
#include "hwgen/exhaustive.h"
#include "hwgen/random_search.h"

namespace {

using namespace dance;
using namespace dance::hwgen;

std::vector<accel::ConvShape> tiny_network() {
  return {
      accel::ConvShape{1, 32, 16, 16, 16, 3, 3, 1, 1},
      accel::ConvShape{1, 64, 64, 8, 8, 5, 5, 1, 64},
      accel::ConvShape{1, 48, 64, 8, 8, 1, 1, 1, 1},
  };
}

class HeuristicSearchTest : public ::testing::Test {
 protected:
  HeuristicSearchTest()
      : space_({.pe_min = 8, .pe_max = 14, .rf_min = 8, .rf_max = 32,
                .rf_step = 8}),
        exact_(space_, model_) {}

  HwSearchSpace space_;
  accel::CostModel model_;
  ExhaustiveSearch exact_;
  accel::HwCostFn cost_fn_ = accel::edap_cost();
};

TEST_F(HeuristicSearchTest, RandomSearchNeverBeatsExhaustive) {
  util::Rng rng(5);
  RandomSearch rs(space_, model_, /*budget=*/64);
  const auto layers = tiny_network();
  const double exact_cost = exact_.run(layers, cost_fn_).cost;
  for (int trial = 0; trial < 3; ++trial) {
    const HwSearchResult r = rs.run(layers, cost_fn_, rng);
    EXPECT_GE(r.cost, exact_cost - 1e-12);
    EXPECT_DOUBLE_EQ(cost_fn_(r.metrics), r.cost);
  }
}

TEST_F(HeuristicSearchTest, RandomSearchImprovesWithBudget) {
  const auto layers = tiny_network();
  // Average over seeds: a 128-sample search should do at least as well as a
  // 2-sample search in expectation; we assert on the mean of a few trials.
  double small_total = 0.0;
  double large_total = 0.0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng r1(seed);
    util::Rng r2(seed);
    small_total += RandomSearch(space_, model_, 2).run(layers, cost_fn_, r1).cost;
    large_total += RandomSearch(space_, model_, 128).run(layers, cost_fn_, r2).cost;
  }
  EXPECT_LE(large_total, small_total + 1e-12);
}

TEST_F(HeuristicSearchTest, AnnealingNearOptimal) {
  util::Rng rng(7);
  SimulatedAnnealing sa(space_, model_);
  const auto layers = tiny_network();
  const double exact_cost = exact_.run(layers, cost_fn_).cost;
  const HwSearchResult r = sa.run(layers, cost_fn_, rng);
  EXPECT_GE(r.cost, exact_cost - 1e-12);
  EXPECT_LE(r.cost, 1.3 * exact_cost);
}

TEST_F(HeuristicSearchTest, AnnealingRespectsSpaceBounds) {
  util::Rng rng(8);
  SimulatedAnnealing sa(space_, model_, {.steps = 200});
  const HwSearchResult r = sa.run(tiny_network(), cost_fn_, rng);
  EXPECT_NO_THROW((void)space_.index_of(r.config));
}

TEST_F(HeuristicSearchTest, BadOptionsThrow) {
  EXPECT_THROW(RandomSearch(space_, model_, 0), std::invalid_argument);
  EXPECT_THROW(SimulatedAnnealing(space_, model_, {.steps = 0}),
               std::invalid_argument);
  EXPECT_THROW(SimulatedAnnealing(space_, model_, {.cooling = 1.5}),
               std::invalid_argument);
  util::Rng rng(1);
  RandomSearch rs(space_, model_, 4);
  EXPECT_THROW((void)rs.run({}, cost_fn_, rng), std::invalid_argument);
}

TEST(CostBreakdown, TotalsAgreeWithLayerCost) {
  accel::CostModel model;
  const accel::ConvShape s{1, 64, 64, 32, 32, 3, 3, 1, 1};
  for (auto df : accel::kAllDataflows) {
    const accel::AcceleratorConfig cfg{12, 20, 24, df};
    const auto b = model.explain(cfg, s);
    const auto lc = model.layer_cost(cfg, s);
    EXPECT_DOUBLE_EQ(b.total_cycles(), lc.cycles);
    EXPECT_DOUBLE_EQ(b.total_energy_pj(), lc.energy_pj);
    // Components are non-negative and the bottleneck label is consistent.
    EXPECT_GE(b.mac_pj, 0.0);
    EXPECT_GE(b.static_pj, 0.0);
    const std::string bn = b.bottleneck();
    if (bn == "compute") {
      EXPECT_DOUBLE_EQ(b.total_cycles(), b.compute_cycles);
    } else if (bn == "gb") {
      EXPECT_DOUBLE_EQ(b.total_cycles(), b.gb_cycles);
    } else {
      EXPECT_DOUBLE_EQ(b.total_cycles(), b.dram_cycles);
    }
  }
}

TEST(CostBreakdown, MacEnergyMatchesMacCount) {
  accel::CostModel model;
  const accel::ConvShape s{1, 16, 8, 8, 8, 3, 3, 1, 1};
  const accel::AcceleratorConfig cfg{8, 8, 16, accel::Dataflow::kRowStationary};
  const auto b = model.explain(cfg, s);
  EXPECT_DOUBLE_EQ(b.mac_pj,
                   static_cast<double>(s.macs()) * model.tech().mac_energy_pj);
  EXPECT_DOUBLE_EQ(b.rf_accesses, 3.0 * static_cast<double>(s.macs()));
}

}  // namespace
