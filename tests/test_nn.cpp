#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/optim.h"

namespace {

using dance::tensor::Tensor;
using dance::tensor::Variable;
namespace ops = dance::tensor::ops;
namespace nn = dance::nn;

/// Central-difference gradient check of a scalar loss w.r.t. one parameter
/// entry.
double numeric_grad(const std::function<double()>& loss_fn, float& param,
                    float eps = 1e-3F) {
  const float saved = param;
  param = saved + eps;
  const double hi = loss_fn();
  param = saved - eps;
  const double lo = loss_fn();
  param = saved;
  return (hi - lo) / (2.0 * eps);
}

TEST(Linear, ForwardShapeAndBias) {
  dance::util::Rng rng(1);
  nn::Linear layer(4, 3, rng);
  Variable x(Tensor::zeros({2, 4}));
  Variable y = layer.forward(x);
  EXPECT_EQ(y.value().rows(), 2);
  EXPECT_EQ(y.value().cols(), 3);
  // zero input -> bias (zero-initialized)
  for (std::size_t i = 0; i < y.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], 0.0F);
  }
}

TEST(Linear, GradientMatchesNumeric) {
  dance::util::Rng rng(2);
  nn::Linear layer(3, 2, rng);
  Tensor xt = Tensor::randn({4, 3}, rng);
  Tensor target = Tensor::randn({4, 2}, rng);

  auto loss_fn = [&]() {
    Variable x(xt);
    Variable out = layer.forward(x);
    return static_cast<double>(ops::mse(out, target).value()[0]);
  };

  Variable x(xt);
  Variable loss = ops::mse(layer.forward(x), target);
  layer.zero_grad();
  loss.backward();

  // Check a few weight entries and one bias entry.
  auto& w = layer.weight();
  for (std::size_t i : {0UL, 3UL, 5UL}) {
    const double num = numeric_grad(loss_fn, w.value()[i]);
    EXPECT_NEAR(w.grad()[i], num, 5e-3) << "weight " << i;
  }
  const double numb = numeric_grad(loss_fn, layer.bias().value()[1]);
  EXPECT_NEAR(layer.bias().grad()[1], numb, 5e-3);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  nn::BatchNorm1d bn(3);
  dance::util::Rng rng(3);
  Variable x(Tensor::randn({64, 3}, rng, 5.0F, 2.0F));
  bn.set_training(true);
  Variable y = bn.forward(x);
  for (int c = 0; c < 3; ++c) {
    double m = 0.0;
    for (int r = 0; r < 64; ++r) m += y.value().at(r, c);
    m /= 64.0;
    double v = 0.0;
    for (int r = 0; r < 64; ++r) {
      v += (y.value().at(r, c) - m) * (y.value().at(r, c) - m);
    }
    v /= 64.0;
    EXPECT_NEAR(m, 0.0, 1e-4);
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(BatchNorm, EvalModeUsesRunningStats) {
  nn::BatchNorm1d bn(2);
  dance::util::Rng rng(4);
  // Update running stats with a few training batches.
  bn.set_training(true);
  for (int i = 0; i < 50; ++i) {
    Variable x(Tensor::randn({32, 2}, rng, 3.0F, 1.0F));
    (void)bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 3.0F, 0.3F);
  // In eval mode a single constant row should map near (x - 3)/1.
  bn.set_training(false);
  Variable x(Tensor::from({1, 2}, {4.0F, 4.0F}));
  Variable y = bn.forward(x);
  EXPECT_NEAR(y.value()[0], 1.0F, 0.3F);
}

TEST(BatchNorm, GradientMatchesNumeric) {
  nn::BatchNorm1d bn(2);
  dance::util::Rng rng(5);
  Tensor xt = Tensor::randn({8, 2}, rng);
  Tensor target = Tensor::randn({8, 2}, rng);

  // Fresh running buffers every call would differ; gradient check uses the
  // training-mode batch statistics, which are deterministic per input.
  auto params = bn.parameters();
  auto& gamma = params[0];
  auto loss_fn = [&]() {
    bn.set_training(true);
    Variable x(xt);
    return static_cast<double>(ops::mse(bn.forward(x), target).value()[0]);
  };

  bn.set_training(true);
  Variable x(xt, true);
  Variable loss = ops::mse(bn.forward(x), target);
  bn.zero_grad();
  loss.backward();
  const double num = numeric_grad(loss_fn, gamma.value()[0]);
  EXPECT_NEAR(gamma.grad()[0], num, 5e-3);
}

TEST(ResidualMlp, ForwardShape) {
  dance::util::Rng rng(6);
  nn::ResidualMlpConfig cfg;
  cfg.in_dim = 10;
  cfg.hidden_dim = 16;
  cfg.num_layers = 5;
  cfg.out_dim = 3;
  nn::ResidualMlp mlp(cfg, rng);
  Variable x(Tensor::randn({7, 10}, rng));
  Variable y = mlp.forward(x);
  EXPECT_EQ(y.value().rows(), 7);
  EXPECT_EQ(y.value().cols(), 3);
}

TEST(ResidualMlp, ParameterCountMatchesArchitecture) {
  dance::util::Rng rng(7);
  nn::ResidualMlpConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden_dim = 8;
  cfg.num_layers = 5;  // input + 3 hidden + output
  cfg.out_dim = 2;
  nn::ResidualMlp mlp(cfg, rng);
  // input: 4*8+8; hidden x3: 8*8+8; output: 8*2+2
  const std::size_t expected = (4 * 8 + 8) + 3 * (8 * 8 + 8) + (8 * 2 + 2);
  EXPECT_EQ(mlp.parameter_count(), expected);
}

TEST(ResidualMlp, RejectsTooFewLayers) {
  dance::util::Rng rng(8);
  nn::ResidualMlpConfig cfg;
  cfg.num_layers = 1;
  EXPECT_THROW(nn::ResidualMlp(cfg, rng), std::invalid_argument);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // minimize (w - 3)^2 via mse against constant target
  Variable w(Tensor::from({1, 1}, {0.0F}), true);
  nn::Sgd opt({w}, {.lr = 0.1F});
  Tensor target = Tensor::from({1, 1}, {3.0F});
  for (int i = 0; i < 200; ++i) {
    Variable loss = ops::mse(w, target);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.value()[0], 3.0F, 1e-3F);
}

TEST(Sgd, WeightDecayShrinksUnusedWeight) {
  Variable w(Tensor::from({1, 1}, {1.0F}), true);
  nn::Sgd opt({w}, {.lr = 0.1F, .weight_decay = 0.5F});
  // gradient from loss is 0: only decay acts
  Variable loss = ops::mse(w, w.value());
  opt.zero_grad();
  loss.backward();
  opt.step();
  EXPECT_LT(w.value()[0], 1.0F);
}

TEST(Adam, ConvergesOnQuadratic) {
  Variable w(Tensor::from({1, 2}, {-2.0F, 5.0F}), true);
  nn::Adam opt({w}, {.lr = 0.05F});
  Tensor target = Tensor::from({1, 2}, {1.0F, -1.0F});
  for (int i = 0; i < 600; ++i) {
    Variable loss = ops::mse(w, target);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.value()[0], 1.0F, 1e-2F);
  EXPECT_NEAR(w.value()[1], -1.0F, 1e-2F);
}

TEST(Optimizer, RejectsNonGradParameters) {
  Variable w(Tensor::zeros({1}), false);
  EXPECT_THROW(nn::Sgd({w}, {}), std::invalid_argument);
}

TEST(Schedules, CosineEndpoints) {
  nn::CosineSchedule s(1.0F, 100);
  EXPECT_NEAR(s.lr(0), 1.0F, 1e-6F);
  EXPECT_NEAR(s.lr(100), 0.0F, 1e-6F);
  EXPECT_NEAR(s.lr(50), 0.5F, 1e-6F);
}

TEST(Schedules, StepDecay) {
  nn::StepSchedule s(1.0F, 0.1F, 50);
  EXPECT_FLOAT_EQ(s.lr(0), 1.0F);
  EXPECT_FLOAT_EQ(s.lr(49), 1.0F);
  EXPECT_NEAR(s.lr(50), 0.1F, 1e-6F);
  EXPECT_NEAR(s.lr(100), 0.01F, 1e-7F);
}

/// Property sweep: the residual MLP gradient matches numeric differentiation
/// across configurations (with and without batch norm, varying depth).
class MlpGradParam : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(MlpGradParam, GradientMatchesNumeric) {
  const auto [layers, batch_norm] = GetParam();
  dance::util::Rng rng(100 + layers);
  nn::ResidualMlpConfig cfg;
  cfg.in_dim = 3;
  cfg.hidden_dim = 6;
  cfg.num_layers = layers;
  cfg.out_dim = 2;
  cfg.batch_norm = batch_norm;
  nn::ResidualMlp mlp(cfg, rng);
  mlp.set_training(true);
  Tensor xt = Tensor::randn({5, 3}, rng);
  Tensor target = Tensor::randn({5, 2}, rng);

  auto loss_fn = [&]() {
    Variable x(xt);
    return static_cast<double>(ops::mse(mlp.forward(x), target).value()[0]);
  };

  Variable loss = ops::mse(mlp.forward(Variable(xt)), target);
  mlp.zero_grad();
  loss.backward();

  auto params = mlp.parameters();
  // Spot-check the first weight of the first and last parameter tensors.
  for (auto* p : {&params.front(), &params.back()}) {
    const double num = numeric_grad(loss_fn, p->value()[0]);
    EXPECT_NEAR(p->grad()[0], num, 2e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(DepthsAndNorm, MlpGradParam,
                         ::testing::Combine(::testing::Values(2, 3, 5),
                                            ::testing::Bool()));

TEST(FrozenScope, RestoresEachFlagWhenUnwinding) {
  // An exception inside the scope (say, a failing arch step) must not leave
  // the parameters frozen, and a parameter that was already frozen stays so.
  Variable trainable(Tensor::zeros({2}), true);
  Variable constant(Tensor::zeros({2}), false);
  try {
    const dance::nn::FrozenScope scope({trainable, constant});
    EXPECT_FALSE(trainable.requires_grad());
    throw std::runtime_error("arch step failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(trainable.requires_grad());
  EXPECT_FALSE(constant.requires_grad());
}

}  // namespace
