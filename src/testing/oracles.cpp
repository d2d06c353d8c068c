#include "testing/oracles.h"

#include <cmath>
#include <cstdint>
#include <sstream>

namespace dance::testing {

std::string cross_check_backends(const accel::CostModel& model,
                                 const accel::SystolicSimulator& sim,
                                 const accel::AcceleratorConfig& config,
                                 const accel::ConvShape& shape,
                                 const BackendTolerance& tol) {
  const accel::LayerCost analytical = model.layer_cost(config, shape);
  const accel::LayerCost simulated = sim.simulate_layer(config, shape);
  const accel::CostBreakdown breakdown = model.explain(config, shape);
  const double ideal = accel::SystolicSimulator::ideal_cycles(config, shape);

  std::ostringstream fail;
  const auto describe = [&]() -> std::string {
    fail << " [analytical cycles=" << analytical.cycles
         << " energy=" << analytical.energy_pj
         << "; simulated cycles=" << simulated.cycles
         << " energy=" << simulated.energy_pj << "; ideal=" << ideal << "]";
    return fail.str();
  };

  // 1. Finite, positive costs from both backends.
  for (const auto& [backend, cost] :
       {std::pair{"analytical", analytical}, {"systolic", simulated}}) {
    if (!std::isfinite(cost.cycles) || cost.cycles <= 0.0 ||
        !std::isfinite(cost.energy_pj) || cost.energy_pj <= 0.0) {
      fail << backend << " backend produced non-finite or non-positive cost";
      return describe();
    }
  }

  // 2. The breakdown's totals must equal layer_cost bit-exactly — the
  // explain() path recomputes the same mapping, so any divergence means the
  // two entry points drifted apart.
  if (breakdown.total_cycles() != analytical.cycles ||
      breakdown.total_energy_pj() != analytical.energy_pj) {
    fail << "explain() totals diverge from layer_cost(): breakdown cycles="
         << breakdown.total_cycles()
         << " energy=" << breakdown.total_energy_pj();
    return describe();
  }

  // 3./4. Ideal-utilization lower bound. The quantized analytical mapping
  // and the fill/drain-paying simulation can only be slower than
  // MACs / #PEs. Tiny relative slack absorbs double rounding in the
  // product-of-dimensions arithmetic.
  constexpr double kSlack = 1.0 - 1e-12;
  if (breakdown.compute_cycles < ideal * kSlack) {
    fail << "analytical compute cycles fell below the ideal roofline: "
         << breakdown.compute_cycles << " < " << ideal;
    return describe();
  }
  if (simulated.cycles < ideal * kSlack) {
    fail << "simulated cycles fell below the ideal roofline: "
         << simulated.cycles << " < " << ideal;
    return describe();
  }

  // 5. Cross-backend ratio bands (documented tolerance policy).
  const double lat_ratio = std::log10(simulated.cycles / analytical.cycles);
  if (std::abs(lat_ratio) > tol.latency_log10) {
    fail << "latency ratio outside tolerance: |log10(sys/analytical)| = "
         << std::abs(lat_ratio) << " > " << tol.latency_log10;
    return describe();
  }
  const double en_ratio = std::log10(simulated.energy_pj / analytical.energy_pj);
  if (std::abs(en_ratio) > tol.energy_log10) {
    fail << "energy ratio outside tolerance: |log10(sys/analytical)| = "
         << std::abs(en_ratio) << " > " << tol.energy_log10;
    return describe();
  }

  // 6. Shared area model: whole-network metrics must agree on area exactly.
  const accel::ConvShape layers[] = {shape};
  const double area_model = model.network_cost(config, layers).area_mm2;
  const double area_sim = sim.simulate_network(config, layers).area_mm2;
  if (area_model != area_sim) {
    fail << "area models diverged: analytical " << area_model << " vs systolic "
         << area_sim;
    return describe();
  }

  // 7. The simulator's im2col lowering covers exactly the layer's MACs: a
  // grouped layer must not be simulated as `groups` copies of the dense one.
  const auto g = accel::SystolicSimulator::lower_to_gemm(config, shape);
  if (static_cast<std::int64_t>(g.m) * g.n * g.k != shape.macs()) {
    fail << "lowered GEMM " << g.m << "x" << g.n << "x" << g.k
         << " does not cover the layer's " << shape.macs() << " MACs";
    return describe();
  }

  return {};
}

}  // namespace dance::testing
