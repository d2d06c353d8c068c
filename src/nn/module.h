#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.h"
#include "tensor/variable.h"

namespace dance::nn {

using tensor::Tensor;
using tensor::Variable;

/// A parameter with a human-readable path ("hidden.2.weight"), used by
/// generic tooling (gradcheck, checkpoint diffing) to report *which* tensor
/// misbehaved. The Variable aliases the module's parameter node.
struct NamedParameter {
  std::string name;
  Variable param;
};

/// Base class for trainable components. Parameters are exposed as autograd
/// variables so any optimizer can update them in place.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  virtual Variable forward(const Variable& x) = 0;
  [[nodiscard]] virtual std::vector<Variable> parameters() = 0;

  /// Parameters with stable names, in the same order as `parameters()`.
  /// The default numbers them "param.0", "param.1", ...; subclasses override
  /// with real names. Generic harnesses (e.g. testing::gradcheck_module)
  /// rely on the ordering contract.
  [[nodiscard]] virtual std::vector<NamedParameter> named_parameters();

  /// Non-trainable state mutated by forward (batch-norm running statistics).
  /// Generic tooling snapshots and restores these to make repeated forwards
  /// side-effect free; checkpointing saves them alongside parameters.
  [[nodiscard]] virtual std::vector<Tensor*> buffers() { return {}; }

  /// Toggle train/eval behaviour (batch norm statistics).
  virtual void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const { return training_; }

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t parameter_count();

  void zero_grad();

 protected:
  bool training_ = true;
};

/// RAII freeze of a parameter set: clears `requires_grad` on every parameter
/// for the scope's lifetime and restores each one's previous flag on exit,
/// also when an exception unwinds. Backward stops at frozen leaves, so their
/// `.grad` is left untouched and no gradient work is spent on them. Like
/// evalnet::Evaluator::set_frozen, this writes the flags, so a parameter set
/// must not be frozen from two threads at once.
class FrozenScope {
 public:
  explicit FrozenScope(std::vector<Variable> params);
  ~FrozenScope();
  FrozenScope(const FrozenScope&) = delete;
  FrozenScope& operator=(const FrozenScope&) = delete;

 private:
  std::vector<Variable> params_;
  std::vector<bool> previous_;
};

}  // namespace dance::nn
