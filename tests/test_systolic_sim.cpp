#include <gtest/gtest.h>

#include <cstdint>

#include "accel/systolic_sim.h"

namespace {

using namespace dance::accel;

ConvShape medium_conv() { return ConvShape{1, 64, 32, 16, 16, 3, 3, 1, 1}; }

TEST(SystolicSim, CyclesAboveIdealBound) {
  SystolicSimulator sim;
  for (auto df : kAllDataflows) {
    const AcceleratorConfig cfg{16, 16, 32, df};
    const LayerCost lc = sim.simulate_layer(cfg, medium_conv());
    EXPECT_GE(lc.cycles,
              SystolicSimulator::ideal_cycles(cfg, medium_conv()) * (1.0 - 1e-9))
        << to_string(df);
    EXPECT_GT(lc.energy_pj, 0.0);
  }
}

TEST(SystolicSim, UtilizationConvergesForLargeLayers) {
  // Fill/drain overhead is amortized as the streamed dimension grows: the
  // ratio simulated/ideal must shrink from a small layer to a large one.
  SystolicSimulator sim;
  const AcceleratorConfig cfg{16, 16, 32, Dataflow::kOutputStationary};
  const ConvShape small{1, 16, 8, 8, 8, 1, 1, 1, 1};
  const ConvShape large{1, 256, 256, 32, 32, 3, 3, 1, 1};
  const double r_small = sim.simulate_layer(cfg, small).cycles /
                         SystolicSimulator::ideal_cycles(cfg, small);
  const double r_large = sim.simulate_layer(cfg, large).cycles /
                         SystolicSimulator::ideal_cycles(cfg, large);
  EXPECT_LT(r_large, r_small);
  EXPECT_LT(r_large, 3.0);  // large layers approach full utilization
}

TEST(SystolicSim, MorePesNotSlowerOnBigLayer) {
  SystolicSimulator sim;
  const ConvShape s{1, 128, 128, 32, 32, 3, 3, 1, 1};
  const AcceleratorConfig small{8, 8, 32, Dataflow::kWeightStationary};
  const AcceleratorConfig big{24, 24, 32, Dataflow::kWeightStationary};
  EXPECT_LT(sim.simulate_layer(big, s).cycles,
            sim.simulate_layer(small, s).cycles);
}

TEST(SystolicSim, NetworkSumsLayersAndSharesAreaModel) {
  SystolicSimulator sim;
  CostModel analytical;
  const AcceleratorConfig cfg{12, 12, 16, Dataflow::kRowStationary};
  const std::vector<ConvShape> one = {medium_conv()};
  const std::vector<ConvShape> two = {medium_conv(), medium_conv()};
  const CostMetrics m1 = sim.simulate_network(cfg, one);
  const CostMetrics m2 = sim.simulate_network(cfg, two);
  EXPECT_NEAR(m2.latency_ms, 2.0 * m1.latency_ms, 1e-9);
  EXPECT_DOUBLE_EQ(m1.area_mm2, analytical.area_mm2(cfg));
}

TEST(SystolicSim, AgreesWithAnalyticalModelWithinFactor) {
  // The two backends disagree in detail but must tell the same coarse
  // story: per-layer latencies within an order of magnitude of each other.
  SystolicSimulator sim;
  CostModel analytical;
  const AcceleratorConfig cfg{16, 16, 32, Dataflow::kWeightStationary};
  const double sim_cycles = sim.simulate_layer(cfg, medium_conv()).cycles;
  const double ana_cycles = analytical.layer_cost(cfg, medium_conv()).cycles;
  EXPECT_LT(sim_cycles / ana_cycles, 10.0);
  EXPECT_GT(sim_cycles / ana_cycles, 0.1);
}

TEST(SystolicSim, RejectsInvalidInputs) {
  SystolicSimulator sim;
  AcceleratorConfig cfg;
  ConvShape bad = medium_conv();
  bad.h = 0;
  EXPECT_THROW((void)sim.simulate_layer(cfg, bad), std::invalid_argument);
  cfg.pe_x = 0;
  EXPECT_THROW((void)sim.simulate_layer(cfg, medium_conv()),
               std::invalid_argument);
}

TEST(SystolicSim, DepthwisePunishedOnWeightStationary) {
  // The im2col window of a depthwise conv is tiny (c/groups == 1), stranding
  // the WS array rows — same qualitative effect as the analytical model.
  SystolicSimulator sim;
  const ConvShape dw{1, 96, 96, 16, 16, 3, 3, 1, 96};
  const AcceleratorConfig ws{16, 16, 32, Dataflow::kWeightStationary};
  const AcceleratorConfig os{16, 16, 32, Dataflow::kOutputStationary};
  EXPECT_GT(sim.simulate_layer(ws, dw).cycles,
            sim.simulate_layer(os, dw).cycles);
}

TEST(SystolicSim, GroupedLayerCostsNoMoreThanItsGroupsRunSeparately) {
  // Folding the groups of a grouped layer into the streamed dimension
  // amortizes fill/drain across them, so on every dataflow the layer can
  // only be cheaper than running each group as its own dense layer — never
  // `groups` times the dense layer's work.
  SystolicSimulator sim;
  const ConvShape depthwise{1, 16, 16, 8, 8, 3, 3, 1, 16};
  const ConvShape grouped{2, 48, 24, 12, 12, 3, 3, 1, 4};
  for (const ConvShape& s : {depthwise, grouped}) {
    ConvShape one_group = s;
    one_group.c = s.c / s.groups;
    one_group.k = s.k / s.groups;
    one_group.groups = 1;
    for (auto df : kAllDataflows) {
      const AcceleratorConfig cfg{8, 8, 16, df};
      const auto g = SystolicSimulator::lower_to_gemm(cfg, s);
      EXPECT_EQ(static_cast<std::int64_t>(g.m) * g.n * g.k, s.macs())
          << s.to_string() << " " << to_string(df);
      EXPECT_LE(sim.simulate_layer(cfg, s).cycles,
                s.groups * sim.simulate_layer(cfg, one_group).cycles)
          << s.to_string() << " " << to_string(df);
    }
  }
}

}  // namespace
