#pragma once

#include <span>

#include "accel/accelerator.h"
#include "accel/conv_shape.h"
#include "accel/cost_model.h"

namespace dance::accel {

/// ScaleSim-style systolic-array simulator (Samajdar et al. 2018) — the
/// *other* family of accelerator evaluation software mentioned in §2.2.
///
/// Unlike the closed-form analytical `CostModel`, this walks the execution
/// tile by tile: the convolution is lowered to an im2col GEMM, the GEMM is
/// folded onto the PE_X x PE_Y array, and each fold pays the systolic
/// pipeline fill/drain in addition to the streaming cycles, overlapped with
/// a double-buffered DRAM prefetch. It therefore reports *higher* cycle
/// counts than the ideal-utilization bound, converging to it for large
/// layers — exactly the behaviour ScaleSim exhibits against roofline
/// models.
///
/// Supported mappings mirror ScaleSim's three dataflows; the mapping only
/// changes which GEMM dimensions are pinned to the array's rows/columns.
class SystolicSimulator {
 public:
  explicit SystolicSimulator(const TechnologyParams& tech = {});

  /// Simulated execution of one layer. `energy_pj` uses the same Accelergy
  /// tables as CostModel, with traffic counted from the simulated tiles.
  [[nodiscard]] LayerCost simulate_layer(const AcceleratorConfig& config,
                                         const ConvShape& shape) const;

  /// Whole network: latencies and energies sum over layers; area comes from
  /// the shared area model.
  [[nodiscard]] CostMetrics simulate_network(
      const AcceleratorConfig& config, std::span<const ConvShape> layers) const;

  /// Ideal lower bound for cross-checking: MACs / PEs.
  [[nodiscard]] static double ideal_cycles(const AcceleratorConfig& config,
                                           const ConvShape& shape);

  [[nodiscard]] const TechnologyParams& tech() const { return tech_; }

  struct Gemm {
    long m = 0;  ///< rows mapped to array rows
    long n = 0;  ///< cols mapped to array cols
    long k = 0;  ///< reduction (streamed through the array)
  };

  /// im2col lowering + dataflow-dependent dimension assignment. A grouped
  /// layer lowers each group's filters and folds the groups into the
  /// streamed dimension, so m * n * k == shape.macs() for every dataflow.
  [[nodiscard]] static Gemm lower_to_gemm(const AcceleratorConfig& config,
                                          const ConvShape& shape);

 private:
  TechnologyParams tech_;
};

}  // namespace dance::accel
