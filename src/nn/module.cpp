#include "nn/module.h"

namespace dance::nn {

std::vector<NamedParameter> Module::named_parameters() {
  std::vector<NamedParameter> out;
  std::size_t i = 0;
  for (auto& p : parameters()) {
    out.push_back({"param." + std::to_string(i++), p});
  }
  return out;
}

std::size_t Module::parameter_count() {
  std::size_t n = 0;
  for (auto& p : parameters()) n += p.value().numel();
  return n;
}

void Module::zero_grad() {
  for (auto& p : parameters()) p.zero_grad();
}

FrozenScope::FrozenScope(std::vector<Variable> params)
    : params_(std::move(params)) {
  previous_.reserve(params_.size());
  for (auto& p : params_) {
    previous_.push_back(p.requires_grad());
    p.node()->requires_grad = false;
  }
}

FrozenScope::~FrozenScope() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i].node()->requires_grad = previous_[i];
  }
}

}  // namespace dance::nn
