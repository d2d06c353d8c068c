#pragma once

#include <memory>
#include <span>
#include <vector>

#include "accel/cost_function.h"
#include "arch/cost_provider.h"
#include "evalnet/evaluator.h"
#include "infer/plan.h"
#include "serve/types.h"

namespace dance::serve {

/// A cost-query answering backend. `query_batch` answers N requests in one
/// call — the batch is the unit the micro-batcher amortizes, so backends
/// should answer a batch cheaper than N single queries where they can
/// (the surrogate stacks all rows into one network forward; the exact
/// backend walks the LUT per request).
///
/// Determinism contract: both shipped backends are pure functions of the
/// request — answering the same encoding twice, in any order, at any batch
/// position, yields bit-identical responses. The memoization cache and the
/// batcher both rely on this.
class CostQueryBackend {
 public:
  virtual ~CostQueryBackend() = default;

  /// Answers `requests` in order; the result has exactly one response per
  /// request. Must be safe to call from one thread at a time (the Service
  /// serializes calls through the batcher).
  [[nodiscard]] virtual std::vector<Response> query_batch(
      std::span<const Request> requests) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Ground-truth backend: argmax-decodes the encoding to a concrete
/// architecture and runs exact hardware generation through the per-choice
/// cost LUT (bit-identical to direct cost-model evaluation).
class ExactBackend : public CostQueryBackend {
 public:
  ExactBackend(const arch::CostProvider& table, accel::HwCostFn cost_fn);

  [[nodiscard]] std::vector<Response> query_batch(
      std::span<const Request> requests) override;
  [[nodiscard]] const char* name() const override { return "exact"; }

 private:
  const arch::CostProvider& table_;
  accel::HwCostFn cost_fn_;
};

/// Trained-surrogate backend: one deterministic [N, W] forward per batch.
/// Construction puts the evaluator into frozen eval mode — the
/// deterministic-inference prerequisite. The hardware configuration is
/// decoded from the tau-frozen one-hot heads.
///
/// Inference tiers (docs/inference.md). The forward runs on one of two
/// implementations, selected at construction (default: the DANCE_INFER
/// environment knob, which defaults to autograd):
///   * autograd — Evaluator::forward_batch through the nn::Module graph;
///     the historical path.
///   * fused — infer::Plan compiled from the frozen checkpoint;
///     bit-identical responses to autograd (property-tested), ~the cost of
///     the raw GEMMs.
class SurrogateBackend : public CostQueryBackend {
 public:
  /// Tier from the DANCE_INFER environment knob.
  explicit SurrogateBackend(evalnet::Evaluator& evaluator);
  /// Explicit tier selection (benchmarks, tests, tier comparisons).
  SurrogateBackend(evalnet::Evaluator& evaluator, infer::Mode mode);

  [[nodiscard]] std::vector<Response> query_batch(
      std::span<const Request> requests) override;
  [[nodiscard]] const char* name() const override { return "surrogate"; }

  [[nodiscard]] infer::Mode infer_mode() const { return mode_; }
  /// The compiled plan (nullptr on the autograd tier).
  [[nodiscard]] const infer::Plan* plan() const { return plan_.get(); }

 private:
  std::vector<Response> query_autograd(std::span<const Request> requests);
  std::vector<Response> query_plan(std::span<const Request> requests);

  evalnet::Evaluator& evaluator_;
  infer::Mode mode_;
  std::unique_ptr<infer::Plan> plan_;
  infer::Arena arena_;  ///< reused scratch; query_batch is single-threaded
  std::vector<float> metrics_;  ///< [N, 3] plan output, reused per batch
  std::vector<float> hw_;       ///< [N, hw_width] plan output, reused
};

}  // namespace dance::serve
