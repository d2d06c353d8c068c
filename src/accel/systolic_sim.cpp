#include "accel/systolic_sim.h"

#include <algorithm>
#include <stdexcept>

namespace dance::accel {

namespace {
long cdiv(long a, long b) { return (a + b - 1) / b; }
}  // namespace

SystolicSimulator::SystolicSimulator(const TechnologyParams& tech)
    : tech_(tech) {}

SystolicSimulator::Gemm SystolicSimulator::lower_to_gemm(
    const AcceleratorConfig& config, const ConvShape& s) {
  // im2col: output pixels x one group's filters, reduced over the
  // receptive field.
  const long pixels = static_cast<long>(s.n) * s.out_h() * s.out_w();
  const long filters = s.k / s.groups;
  const long window = static_cast<long>(s.c_per_group()) * s.r * s.s;

  Gemm g;
  switch (config.dataflow) {
    case Dataflow::kWeightStationary:
      // Weights pinned: filters on columns, window on rows, pixels streamed.
      g.m = window;
      g.n = filters;
      g.k = pixels;
      break;
    case Dataflow::kOutputStationary:
      // Outputs pinned: pixels on rows, filters on columns, window streamed.
      g.m = pixels;
      g.n = filters;
      g.k = window;
      break;
    case Dataflow::kRowStationary:
      // Row-stationary folds filter rows across the array; at GEMM
      // granularity this behaves like pinning pixels on columns and the
      // window on rows, streaming filters.
      g.m = window;
      g.n = pixels;
      g.k = filters;
      break;
  }
  // Grouped convolutions execute group by group with the same mapping; fold
  // the group count into the streamed dimension.
  g.k *= s.groups;
  return g;
}

LayerCost SystolicSimulator::simulate_layer(const AcceleratorConfig& config,
                                            const ConvShape& shape) const {
  if (config.pe_x <= 0 || config.pe_y <= 0 || config.rf_size <= 0) {
    throw std::invalid_argument("SystolicSimulator: bad configuration");
  }
  if (!shape.valid()) {
    throw std::invalid_argument("SystolicSimulator: invalid shape " +
                                shape.to_string());
  }
  const Gemm g = lower_to_gemm(config, shape);

  // Fold the GEMM onto the array: each (row-fold, col-fold) pass streams the
  // reduction dimension through the pipeline, paying fill + drain.
  const long row_folds = cdiv(g.m, config.pe_y);
  const long col_folds = cdiv(g.n, config.pe_x);

  double compute_cycles = 0.0;
  double dram_words = 0.0;
  for (long rf = 0; rf < row_folds; ++rf) {
    const long rows = std::min<long>(config.pe_y, g.m - rf * config.pe_y);
    for (long cf = 0; cf < col_folds; ++cf) {
      const long cols = std::min<long>(config.pe_x, g.n - cf * config.pe_x);
      // ScaleSim pass model: 2*dims + depth - 2 cycles per fold (fill the
      // diagonal wavefront, stream the reduction, drain the results).
      const double pass_cycles =
          static_cast<double>(rows) + static_cast<double>(cols) +
          static_cast<double>(g.k) - 2.0;
      compute_cycles += std::max(1.0, pass_cycles);
      // Stationary tile (rows x cols) loaded once per pass; moving operands
      // stream rows+cols words per reduction step.
      dram_words += static_cast<double>(rows) * cols +
                    static_cast<double>(g.k) * (rows + cols) /
                        // A bigger RF lets a pass reuse the streamed operand
                        // across neighbouring folds.
                        std::clamp(static_cast<double>(config.rf_size) / 8.0,
                                   1.0, 8.0);
    }
  }

  // Double-buffered prefetch: memory time overlaps compute; the layer is
  // bound by the slower of the two.
  const double dram_cycles = dram_words / tech_.dram_bandwidth;
  LayerCost cost;
  cost.cycles = std::max(compute_cycles, dram_cycles);

  const double rf_access_pj =
      tech_.rf_energy_base_pj + tech_.rf_energy_per_word_pj * config.rf_size;
  const double macs = static_cast<double>(shape.macs());
  cost.energy_pj = macs * tech_.mac_energy_pj + 3.0 * macs * rf_access_pj +
                   dram_words * tech_.dram_energy_pj +
                   dram_words * 0.5 * (config.pe_x + config.pe_y) *
                       tech_.noc_energy_per_hop_pj +
                   cost.cycles * config.num_pes() * 0.02;
  return cost;
}

CostMetrics SystolicSimulator::simulate_network(
    const AcceleratorConfig& config, std::span<const ConvShape> layers) const {
  double cycles = 0.0;
  double energy_pj = 0.0;
  for (const auto& layer : layers) {
    const LayerCost lc = simulate_layer(config, layer);
    cycles += lc.cycles;
    energy_pj += lc.energy_pj;
  }
  CostMetrics m;
  m.latency_ms = cycles / (tech_.clock_ghz * 1e6);
  m.energy_mj = energy_pj * 1e-9;
  // Shared area model keeps the two backends comparable.
  m.area_mm2 = CostModel(tech_).area_mm2(config);
  return m;
}

double SystolicSimulator::ideal_cycles(const AcceleratorConfig& config,
                                       const ConvShape& shape) {
  return static_cast<double>(shape.macs()) /
         static_cast<double>(config.num_pes());
}

}  // namespace dance::accel
