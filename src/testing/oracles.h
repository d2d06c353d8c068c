#pragma once

#include <string>

#include "accel/cost_model.h"
#include "accel/systolic_sim.h"

namespace dance::testing {

/// Tolerance policy of the analytical-model vs systolic-simulator latency
/// cross-check (see docs/testing.md, "Cost-model oracle tolerance").
///
/// The two backends are *independent* models of the same machine — a
/// closed-form roofline vs a tile-walking simulation — so they are expected
/// to agree in order of magnitude, not bitwise:
///  * both are bounded below by the ideal-utilization roofline
///    (MACs / #PEs), which this oracle checks exactly, and
///  * the simulator adds pipeline fill/drain and models DRAM streaming with
///    different reuse assumptions, so the latency and energy ratios are
///    bounded multiplicatively.
///
/// The default bands were calibrated over 2e4 random (config, shape) points
/// drawn from the same generators the property suite uses (seed 20260805):
/// |log10 ratio| medians are ~0.37 (latency) / ~0.33 (energy), p99 ~1.5 /
/// ~1.4, observed maxima 2.49 / 2.13 — the tail is depthwise layers, where
/// the roofline mapping exploits group sparsity the im2col GEMM lowering
/// gives up. 3.0 leaves ~3x headroom over the observed worst case; the
/// order-of-magnitude teeth of the oracle are invariants 1-4, 6 and 7 below,
/// which are exact.
struct BackendTolerance {
  /// |log10(systolic_latency / analytical_latency)| bound.
  double latency_log10 = 3.0;
  /// |log10(systolic_energy / analytical_energy)| bound.
  double energy_log10 = 3.0;
};

/// Differential oracle: evaluates one (config, layer) point on both
/// accelerator backends and checks every cross-backend invariant:
///  1. both report finite, strictly positive cycles and energy,
///  2. `CostModel::explain` component totals equal `layer_cost` exactly,
///  3. analytical compute cycles >= MACs / #PEs (ceil quantization can only
///     lose utilization),
///  4. simulated cycles >= MACs / #PEs (fill/drain can only add cycles),
///  5. latency/energy ratios inside the `BackendTolerance` bands,
///  6. the two backends report the bit-identical area (shared area model),
///  7. the simulator's lowered GEMM volume m*n*k equals the layer's MACs.
///
/// Returns "" on success, else a diagnosis naming the violated invariant
/// with both backends' numbers — usable directly as a property body.
[[nodiscard]] std::string cross_check_backends(
    const accel::CostModel& model, const accel::SystolicSimulator& sim,
    const accel::AcceleratorConfig& config, const accel::ConvShape& shape,
    const BackendTolerance& tol = {});

}  // namespace dance::testing
