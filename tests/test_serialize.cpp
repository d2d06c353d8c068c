#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "evalnet/cost_net.h"
#include "hwgen/search_space.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "util/artifact.h"

namespace {

using namespace dance;
using tensor::Tensor;
using tensor::Variable;

nn::ResidualMlpConfig small_cfg() {
  nn::ResidualMlpConfig cfg;
  cfg.in_dim = 4;
  cfg.hidden_dim = 8;
  cfg.num_layers = 3;
  cfg.out_dim = 2;
  cfg.batch_norm = true;
  return cfg;
}

TEST(Serialize, RoundTripRestoresValues) {
  const std::string path = "/tmp/dance_ckpt_roundtrip.bin";
  util::Rng rng(1);
  nn::ResidualMlp a(small_cfg(), rng);
  nn::ResidualMlp b(small_cfg(), rng);  // different init

  auto pa = a.parameters();
  auto pb = b.parameters();
  nn::save_parameters(path, pa);
  nn::load_parameters(path, pb);

  for (std::size_t k = 0; k < pa.size(); ++k) {
    ASSERT_EQ(pa[k].value().shape(), pb[k].value().shape());
    for (std::size_t i = 0; i < pa[k].value().numel(); ++i) {
      EXPECT_FLOAT_EQ(pa[k].value()[i], pb[k].value()[i]);
    }
  }
  // Loaded model computes the same function.
  a.set_training(false);
  b.set_training(false);
  util::Rng xr(2);
  Variable x(Tensor::randn({3, 4}, xr));
  const auto ya = a.forward(x);
  const auto yb = b.forward(x);
  for (std::size_t i = 0; i < ya.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(ya.value()[i], yb.value()[i]);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, CompatibilityCheck) {
  const std::string path = "/tmp/dance_ckpt_compat.bin";
  util::Rng rng(3);
  nn::ResidualMlp a(small_cfg(), rng);
  auto pa = a.parameters();
  EXPECT_THROW(nn::load_parameters(path, pa),  // does not exist yet
               util::ArtifactError);
  nn::save_parameters(path, pa);
  EXPECT_NO_THROW(nn::load_parameters(path, pa));

  // A differently-shaped model must be rejected.
  nn::ResidualMlpConfig other = small_cfg();
  other.hidden_dim = 16;
  nn::ResidualMlp b(other, rng);
  auto pb = b.parameters();
  EXPECT_THROW(nn::load_parameters(path, pb), util::ArtifactError);
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsGarbageFile) {
  const std::string path = "/tmp/dance_ckpt_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint";
  }
  util::Rng rng(4);
  nn::ResidualMlp a(small_cfg(), rng);
  auto pa = a.parameters();
  EXPECT_THROW(nn::load_parameters(path, pa), util::ArtifactError);

  // A checkpoint of the previous, unchecksummed format (magic 0xDA9CE001)
  // is rejected by its magic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::uint32_t header[2] = {0xDA9CE001, 0};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    out.write("\0\0\0\0\0\0\0\0", 8);
  }
  try {
    nn::load_parameters(path, pa);
    FAIL() << "old-format checkpoint was accepted";
  } catch (const util::ArtifactError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(e.offset(), 0U);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, CostNetFullStateRoundTrip) {
  const std::string path = "/tmp/dance_ckpt_costnet.bin";
  dance::hwgen::HwSearchSpace space(
      {.pe_min = 8, .pe_max = 9, .rf_min = 8, .rf_max = 8, .rf_step = 4});
  util::Rng rng(6);
  dance::evalnet::CostNet::Options opts;
  opts.feature_forwarding = false;
  opts.hidden_dim = 16;
  dance::evalnet::CostNet a(10, space.encoding_width(), rng, opts);
  a.set_output_scale({2.0, 3.0, 4.0});
  // Push some batches through so running stats differ from init.
  a.set_training(true);
  for (int i = 0; i < 5; ++i) {
    (void)a.forward(Variable(Tensor::randn({8, 10}, rng)), Variable{});
  }
  a.save(path);

  dance::evalnet::CostNet b(10, space.encoding_width(), rng, opts);
  b.load(path);
  EXPECT_DOUBLE_EQ(b.output_scale()[1], 3.0);
  // Identical eval-mode outputs (running stats restored too).
  a.set_training(false);
  b.set_training(false);
  Variable x(Tensor::randn({4, 10}, rng));
  const auto ya = a.forward(x, Variable{});
  const auto yb = b.forward(x, Variable{});
  for (std::size_t i = 0; i < ya.value().numel(); ++i) {
    EXPECT_FLOAT_EQ(ya.value()[i], yb.value()[i]);
  }
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  util::Rng rng(5);
  nn::ResidualMlp a(small_cfg(), rng);
  auto pa = a.parameters();
  EXPECT_THROW(nn::load_parameters("/tmp/definitely_missing_ckpt.bin", pa),
               util::ArtifactError);
}

}  // namespace
