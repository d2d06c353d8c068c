// Property suite 4: checkpoint round-trip properties for nn::serialize and
// the evalnet checkpoint paths. Random tensor lists (including ±0, ±inf,
// NaN and denormal payloads) must survive save/load byte-exactly; random
// evaluator-network configurations must reload into functionally identical
// models; and *no* truncation or bit flip of a valid checkpoint may crash
// the loader or touch its destinations — it must throw util::ArtifactError.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "evalnet/cost_net.h"
#include "evalnet/hwgen_net.h"
#include "hwgen/search_space.h"
#include "nn/mlp.h"
#include "nn/serialize.h"
#include "testing/generators.h"
#include "testing/property.h"
#include "util/artifact.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;
using tensor::Tensor;
using tensor::Variable;

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dance_pbt_") + tag + "_" +
           std::to_string(::getpid()) + ".bin"))
      .string();
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0);
}

TEST(SerializeRoundTrip, TensorListsSurviveByteExactly) {
  const std::string path = temp_path("tensors");
  const auto result = testing_::check<std::vector<Tensor>>(
      "tensor list save/load round trip", testing_::tensor_list_gen(),
      [&](const std::vector<Tensor>& ts, util::Rng&) -> std::string {
        std::vector<const Tensor*> src;
        for (const auto& t : ts) src.push_back(&t);
        nn::save_tensors(path, src);

        std::vector<Tensor> loaded;
        for (const auto& t : ts) loaded.emplace_back(t.shape());
        std::vector<Tensor*> dst;
        for (auto& t : loaded) dst.push_back(&t);
        nn::load_tensors(path, dst);

        for (std::size_t i = 0; i < ts.size(); ++i) {
          if (!bytes_equal(ts[i], loaded[i])) {
            return "tensor " + std::to_string(i) +
                   " changed bytes across the round trip";
          }
        }
        return "";
      });
  std::filesystem::remove(path);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(SerializeRoundTrip, TruncatedCheckpointsThrowNeverCrash) {
  // Differential fuzz of the load path: cut a valid checkpoint at a random
  // byte offset, and flip one random bit of it. Every damaged file must be
  // rejected with util::ArtifactError — no crash, no hang — before any
  // destination tensor is written.
  const std::string path = temp_path("trunc");
  const auto result = testing_::check<std::vector<Tensor>>(
      "damaged checkpoint rejection", testing_::tensor_list_gen(4, 8),
      [&](const std::vector<Tensor>& ts, util::Rng& rng) -> std::string {
        std::vector<const Tensor*> src;
        for (const auto& t : ts) src.push_back(&t);
        nn::save_tensors(path, src);
        std::string good;
        {
          std::ifstream in(path, std::ios::binary);
          good.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
        }
        const int size = static_cast<int>(good.size());
        const int cut = rng.randint(0, size - 1);
        const int flip_at = rng.randint(0, size - 1);
        const int flip_bit = rng.randint(0, 7);
        std::string flipped = good;
        flipped[static_cast<std::size_t>(flip_at)] ^=
            static_cast<char>(1 << flip_bit);

        for (const auto& [bad, what] :
             {std::pair{good.substr(0, static_cast<std::size_t>(cut)),
                        "truncated at byte " + std::to_string(cut)},
              std::pair{flipped, "bit " + std::to_string(flip_bit) +
                                     " flipped at byte " +
                                     std::to_string(flip_at)}}) {
          {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
          }
          // Destinations hold a sentinel pattern that no load may touch.
          std::vector<Tensor> loaded;
          for (const auto& t : ts) {
            loaded.emplace_back(t.shape());
            for (std::size_t k = 0; k < loaded.back().numel(); ++k) {
              loaded.back()[k] = -1234.5F - static_cast<float>(k);
            }
          }
          const std::vector<Tensor> before = loaded;
          std::vector<Tensor*> dst;
          for (auto& t : loaded) dst.push_back(&t);
          try {
            nn::load_tensors(path, dst);
            return "loader accepted a checkpoint " + what + " of " +
                   std::to_string(size);
          } catch (const util::ArtifactError&) {
            // expected
          }
          for (std::size_t k = 0; k < loaded.size(); ++k) {
            if (!bytes_equal(loaded[k], before[k])) {
              return "rejected load of a checkpoint " + what +
                     " overwrote tensor " + std::to_string(k);
            }
          }
        }
        return "";
      });
  std::filesystem::remove(path);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

/// Random small evaluator-network shapes.
struct NetCase {
  int arch_width = 4;
  int hidden = 8;
  int layers = 3;
  bool feature_forwarding = false;
  bool batch_norm = false;
  std::uint64_t seed = 1;

  [[nodiscard]] std::string to_string() const {
    return "NetCase(arch_width=" + std::to_string(arch_width) +
           " hidden=" + std::to_string(hidden) +
           " layers=" + std::to_string(layers) +
           " ff=" + std::to_string(feature_forwarding) +
           " bn=" + std::to_string(batch_norm) +
           " seed=" + std::to_string(seed) + ")";
  }
};

testing_::Generator<NetCase> net_case_gen() {
  testing_::Generator<NetCase> gen;
  gen.sample = [](util::Rng& rng) {
    NetCase c;
    c.arch_width = rng.randint(1, 8);
    c.hidden = rng.randint(2, 12);
    c.layers = rng.randint(2, 5);
    c.feature_forwarding = rng.uniform() < 0.5F;
    c.batch_norm = rng.uniform() < 0.5F;
    c.seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
    return c;
  };
  gen.shrink = [](const NetCase& c) {
    std::vector<NetCase> out;
    const auto shrink_field = [&](int NetCase::*field, int target) {
      for (long v : testing_::shrink_toward(c.*field, target)) {
        NetCase t = c;
        t.*field = static_cast<int>(v);
        out.push_back(t);
      }
    };
    for (bool NetCase::*flag :
         {&NetCase::feature_forwarding, &NetCase::batch_norm}) {
      if (c.*flag) {
        NetCase t = c;
        t.*flag = false;
        out.push_back(t);
      }
    }
    shrink_field(&NetCase::arch_width, 1);
    shrink_field(&NetCase::hidden, 2);
    shrink_field(&NetCase::layers, 2);
    return out;
  };
  gen.show = [](const NetCase& c) { return c.to_string(); };
  return gen;
}

TEST(SerializeRoundTrip, ResidualMlpParametersReloadFunctionally) {
  const std::string path = temp_path("mlp");
  const auto result = testing_::check<NetCase>(
      "ResidualMlp parameter round trip", net_case_gen(),
      [&](const NetCase& c, util::Rng& rng) -> std::string {
        nn::ResidualMlpConfig cfg;
        cfg.in_dim = c.arch_width;
        cfg.hidden_dim = c.hidden;
        cfg.num_layers = c.layers;
        cfg.out_dim = 2;
        cfg.batch_norm = c.batch_norm;
        util::Rng init_a(c.seed);
        util::Rng init_b(c.seed + 1);  // different init on purpose
        nn::ResidualMlp a(cfg, init_a);
        nn::ResidualMlp b(cfg, init_b);

        const auto pa = a.parameters();
        auto pb = b.parameters();
        nn::save_parameters(path, pa);
        nn::load_parameters(path, pb);

        a.set_training(false);
        b.set_training(false);
        const Tensor x = Tensor::randn({3, c.arch_width}, rng);
        const Variable ya = a.forward(Variable(x));
        const Variable yb = b.forward(Variable(x));
        if (!bytes_equal(ya.value(), yb.value())) {
          // Eval-mode batch-norm uses running buffers, which
          // save_parameters intentionally does not carry; both models are
          // at init statistics here, so outputs must still agree.
          return "reloaded model computes a different function";
        }
        return "";
      });
  std::filesystem::remove(path);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

TEST(SerializeRoundTrip, EvalnetCheckpointsRestoreFullState) {
  // CostNet::save / load carry parameters, batch-norm running statistics and
  // the output scale; HwGenNet::save / load carry parameters. After a few
  // training-mode forwards (to move the running stats off init), a reloaded
  // model must be functionally identical in eval mode.
  const std::string path = temp_path("evalnet");
  hwgen::HwSearchSpace space(
      {.pe_min = 8, .pe_max = 9, .rf_min = 8, .rf_max = 8, .rf_step = 4});
  const auto result = testing_::check<NetCase>(
      "evalnet checkpoint full-state round trip", net_case_gen(),
      [&](const NetCase& c, util::Rng& rng) -> std::string {
        util::Rng init_a(c.seed);
        util::Rng init_b(c.seed + 99);
        if (c.batch_norm) {
          evalnet::CostNet::Options opts;
          opts.hidden_dim = c.hidden;
          opts.feature_forwarding = false;
          evalnet::CostNet a(c.arch_width, space.encoding_width(), init_a, opts);
          evalnet::CostNet b(c.arch_width, space.encoding_width(), init_b, opts);
          a.set_output_scale({1.5, 2.5, 3.5});
          a.set_training(true);
          for (int i = 0; i < 3; ++i) {
            (void)a.forward(Variable(Tensor::randn({4, c.arch_width}, rng)),
                            Variable{});
          }
          a.save(path);
          b.load(path);
          if (b.output_scale() != std::array<double, 3>{1.5, 2.5, 3.5}) {
            return "output scale not restored";
          }
          a.set_training(false);
          b.set_training(false);
          const Variable x(Tensor::randn({2, c.arch_width}, rng));
          if (!bytes_equal(a.forward(x, Variable{}).value(),
                           b.forward(x, Variable{}).value())) {
            return "CostNet reload is not functionally identical";
          }
        } else {
          evalnet::HwGenNet::Options opts;
          opts.hidden_dim = c.hidden;
          opts.num_layers = c.layers;
          evalnet::HwGenNet a(c.arch_width, space, init_a, opts);
          evalnet::HwGenNet b(c.arch_width, space, init_b, opts);
          a.save(path);
          b.load(path);
          a.set_training(false);
          b.set_training(false);
          const Variable x(Tensor::randn({2, c.arch_width}, rng));
          if (!bytes_equal(a.logits(x).value(), b.logits(x).value())) {
            return "HwGenNet reload is not functionally identical";
          }
        }
        return "";
      });
  std::filesystem::remove(path);
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

}  // namespace
