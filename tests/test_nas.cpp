#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nas/fixed_net.h"
#include "nas/supernet.h"
#include "nas/trainer.h"
#include "nn/module.h"

namespace {

using namespace dance;
using arch::CandidateOp;
using tensor::Tensor;
using tensor::Variable;

nas::SuperNetConfig tiny_config() {
  nas::SuperNetConfig cfg;
  cfg.input_dim = 8;
  cfg.num_classes = 4;
  cfg.width = 16;
  cfg.num_blocks = 3;
  return cfg;
}

TEST(SuperNet, OpHiddenDimOrdering) {
  const nas::SuperNetConfig cfg = tiny_config();
  // Capacity must rise with expansion and kernel size, mirroring MBConv MACs.
  EXPECT_LT(nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv3x3E3),
            nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv3x3E6));
  EXPECT_LT(nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv3x3E6),
            nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kMbConv7x7E6));
  EXPECT_EQ(nas::SuperNet::op_hidden_dim(cfg, CandidateOp::kZero), 0);
}

TEST(SuperNet, ForwardShape) {
  util::Rng rng(1);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({5, 8}, rng));
  const auto gates = net.softmax_gates();
  const Variable y = net.forward(x, gates);
  EXPECT_EQ(y.value().rows(), 5);
  EXPECT_EQ(y.value().cols(), 4);
}

TEST(SuperNet, OneHotGatesMatchFixedForward) {
  util::Rng rng(2);
  nas::SuperNet net(tiny_config(), rng);
  const arch::Architecture a = {CandidateOp::kMbConv5x5E6, CandidateOp::kZero,
                                CandidateOp::kMbConv3x3E3};
  Variable x(Tensor::randn({4, 8}, rng));
  const Variable via_gates = net.forward(x, net.onehot_gates(a));
  const Variable via_fixed = net.forward_fixed(x, a);
  for (std::size_t i = 0; i < via_gates.value().numel(); ++i) {
    EXPECT_NEAR(via_gates.value()[i], via_fixed.value()[i], 1e-5F);
  }
}

TEST(SuperNet, DeriveFollowsAlphaArgmax) {
  util::Rng rng(3);
  nas::SuperNet net(tiny_config(), rng);
  auto alphas = net.arch_parameters();
  alphas[0].value().at(0, static_cast<int>(CandidateOp::kZero)) = 5.0F;
  alphas[1].value().at(0, static_cast<int>(CandidateOp::kMbConv7x7E6)) = 5.0F;
  const arch::Architecture a = net.derive();
  EXPECT_EQ(a[0], CandidateOp::kZero);
  EXPECT_EQ(a[1], CandidateOp::kMbConv7x7E6);
}

TEST(SuperNet, ArchProbsAreDistributions) {
  util::Rng rng(4);
  nas::SuperNet net(tiny_config(), rng);
  for (const auto& p : net.arch_probs()) {
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SuperNet, GatesEncodingWidth) {
  util::Rng rng(5);
  nas::SuperNet net(tiny_config(), rng);
  const auto gates = net.sample_gates(1.0F, true, rng);
  const Variable enc = nas::SuperNet::encode_gates(gates);
  EXPECT_EQ(enc.value().cols(), 3 * arch::kNumCandidateOps);
}

TEST(SuperNet, ArchGradientFlowsThroughGumbelGates) {
  util::Rng rng(6);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({4, 8}, rng));
  auto gates = net.sample_gates(1.0F, /*hard=*/true, rng);
  const Variable loss =
      tensor::ops::cross_entropy(net.forward(x, gates), {0, 1, 2, 3});
  for (auto& a : net.arch_parameters()) a.zero_grad();
  loss.backward();
  bool any = false;
  for (auto& a : net.arch_parameters()) {
    for (std::size_t i = 0; i < a.grad().numel(); ++i) {
      if (a.grad()[i] != 0.0F) any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST(SuperNet, TwoPathSampleIsValid) {
  util::Rng rng(11);
  nas::SuperNet net(tiny_config(), rng);
  const auto samples = net.sample_two_paths(rng);
  ASSERT_EQ(samples.size(), 3U);
  for (const auto& s : samples) {
    EXPECT_NE(s.op_a, s.op_b);  // two distinct paths
    EXPECT_GE(s.op_a, 0);
    EXPECT_LT(s.op_a, arch::kNumCandidateOps);
    // Gate is a 2-way distribution.
    EXPECT_NEAR(s.gate.value()[0] + s.gate.value()[1], 1.0F, 1e-5F);
  }
}

TEST(SuperNet, TwoPathForwardAndEncodingGradients) {
  util::Rng rng(12);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({4, 8}, rng));
  const auto samples = net.sample_two_paths(rng);
  const Variable logits = net.forward_two_path(x, samples);
  EXPECT_EQ(logits.value().cols(), 4);
  const Variable enc = nas::SuperNet::encode_two_path(samples);
  EXPECT_EQ(enc.value().cols(), 3 * arch::kNumCandidateOps);
  // Encoding rows are distributions over ops per block.
  for (int b = 0; b < 3; ++b) {
    float sum = 0.0F;
    for (int j = 0; j < arch::kNumCandidateOps; ++j) {
      sum += enc.value().at(0, b * arch::kNumCandidateOps + j);
    }
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
  // Gradients reach the architecture parameters through the encoding. The
  // weighting must differ across ops (a uniform weight has zero gradient
  // through the 2-way softmax since the gate entries sum to 1).
  for (auto& a : net.arch_parameters()) a.zero_grad();
  Tensor w({1, 3 * arch::kNumCandidateOps});
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] = 0.1F * static_cast<float>(i);
  tensor::ops::sum_all(tensor::ops::mul(enc, Variable(w))).backward();
  bool any = false;
  for (auto& a : net.arch_parameters()) {
    for (std::size_t i = 0; i < a.grad().numel(); ++i) {
      if (a.grad()[i] != 0.0F) any = true;
    }
  }
  EXPECT_TRUE(any);
}

std::vector<Tensor> grads_of(const std::vector<Variable>& params) {
  std::vector<Tensor> out;
  for (const auto& p : params) out.push_back(p.grad());
  return out;
}

bool same_bits(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_shape(b[i]) ||
        std::memcmp(a[i].data(), b[i].data(), a[i].numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(SuperNet, FrozenWeightsArchStepKeepsArchGradsAndSkipsWeightGrads) {
  // DanceSearch::run takes its arch step under an nn::FrozenScope over the
  // supernet weights. The arch gradients must be bit-identical to an
  // unfrozen backward, the weight gradients must be left exactly as they
  // were, and every weight must be trainable again once the scope ends.
  util::Rng rng(11);
  nas::SuperNet net(tiny_config(), rng);
  const Variable x(Tensor::randn({6, 8}, rng));
  const std::vector<int> labels{0, 1, 2, 3, 0, 1};
  const auto arch_step = [&] {
    for (auto& a : net.arch_parameters()) a.zero_grad();
    tensor::ops::cross_entropy(net.forward(x, net.softmax_gates()), labels)
        .backward();
    return grads_of(net.arch_parameters());
  };
  const std::vector<Tensor> unfrozen = arch_step();
  // The unfrozen step also left non-zero weight gradients; a frozen step
  // that still reached the weights would add to them.
  const std::vector<Tensor> weight_grads = grads_of(net.weight_parameters());
  bool any = false;
  for (const auto& g : weight_grads) {
    for (std::size_t i = 0; i < g.numel(); ++i) any |= g[i] != 0.0F;
  }
  ASSERT_TRUE(any);

  std::vector<Tensor> frozen;
  {
    const nn::FrozenScope scope(net.weight_parameters());
    for (const auto& w : net.weight_parameters()) EXPECT_FALSE(w.requires_grad());
    frozen = arch_step();
  }
  EXPECT_TRUE(same_bits(frozen, unfrozen));
  EXPECT_TRUE(same_bits(grads_of(net.weight_parameters()), weight_grads));
  for (const auto& w : net.weight_parameters()) EXPECT_TRUE(w.requires_grad());
  for (const auto& a : net.arch_parameters()) EXPECT_TRUE(a.requires_grad());
}

TEST(SuperNet, RejectsWrongGateCount) {
  util::Rng rng(7);
  nas::SuperNet net(tiny_config(), rng);
  Variable x(Tensor::randn({2, 8}, rng));
  EXPECT_THROW(net.forward(x, {}), std::invalid_argument);
}

TEST(FixedNet, ZeroBlocksAreIdentity) {
  util::Rng rng(8);
  const nas::SuperNetConfig cfg = tiny_config();
  const arch::Architecture all_zero(3, CandidateOp::kZero);
  nas::FixedNet net(cfg, all_zero, rng);
  // With all-Zero blocks the net is stem + classifier only.
  // parameters: stem (8*16+16) + classifier (16*4+4)
  std::size_t count = 0;
  for (auto& p : net.parameters()) count += p.value().numel();
  EXPECT_EQ(count, static_cast<std::size_t>(8 * 16 + 16 + 16 * 4 + 4));
}

TEST(FixedNet, TrainingLearnsSeparableTask) {
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 8;
  dcfg.num_classes = 4;
  dcfg.clusters_per_class = 1;
  dcfg.train_samples = 512;
  dcfg.val_samples = 128;
  dcfg.noise = 0.3F;
  const data::SyntheticTask task = make_synthetic_task(dcfg);

  util::Rng rng(9);
  nas::SuperNetConfig cfg = tiny_config();
  const arch::Architecture a(3, CandidateOp::kMbConv5x5E6);
  nas::FixedNet net(cfg, a, rng);
  nas::FixedTrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 64;
  const auto result = nas::train_fixed_net(net, task, opts);
  EXPECT_GT(result.val_accuracy_pct, 85.0);
}

TEST(FixedNet, CapacityOrderingShowsOnHardTask) {
  // A higher-capacity architecture should fit a hard task at least as well
  // as the all-Zero one (which is just a linear-ish stem+classifier).
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 8;
  dcfg.num_classes = 4;
  dcfg.clusters_per_class = 4;
  dcfg.train_samples = 768;
  dcfg.val_samples = 256;
  dcfg.noise = 0.5F;
  dcfg.warp = 1.2F;
  const data::SyntheticTask task = make_synthetic_task(dcfg);

  util::Rng rng(10);
  nas::SuperNetConfig cfg = tiny_config();
  nas::FixedTrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 64;

  nas::FixedNet zero_net(cfg, arch::Architecture(3, CandidateOp::kZero), rng);
  nas::FixedNet big_net(cfg, arch::Architecture(3, CandidateOp::kMbConv7x7E6), rng);
  const double zero_acc = nas::train_fixed_net(zero_net, task, opts).val_accuracy_pct;
  const double big_acc = nas::train_fixed_net(big_net, task, opts).val_accuracy_pct;
  EXPECT_GE(big_acc + 3.0, zero_acc);  // big should not be meaningfully worse
}

TEST(Trainer, AccuracyPctBounds) {
  data::SyntheticTaskConfig dcfg;
  dcfg.input_dim = 4;
  dcfg.num_classes = 3;
  dcfg.train_samples = 30;
  dcfg.val_samples = 30;
  const data::SyntheticTask task = make_synthetic_task(dcfg);
  // A constant-forward "model" must land at chance-ish accuracy in [0, 100].
  const auto fwd = [&](const Variable& x) {
    return Variable(Tensor::zeros({x.value().rows(), 3}));
  };
  const double acc = nas::accuracy_pct(fwd, task.val, 16);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 100.0);
}

}  // namespace
