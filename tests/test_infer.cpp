// Unit tests for the dance::infer frozen-inference compiler: mode knob
// parsing, freeze/compile surface, the fused plan's bit-identity to the
// autograd path on a fixed checkpoint, the shared blocked GEMM and the
// SurrogateBackend tier routing.
// Suite names carry a lowercase "infer" prefix on purpose: `ctest -R infer`
// selects exactly these suites (plus the randomized property suites in
// test_property_infer.cpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "arch/backbone.h"
#include "arch/ops.h"
#include "evalnet/evaluator.h"
#include "infer/plan.h"
#include "serve/backend.h"
#include "tensor/gemm.h"
#include "util/rng.h"

namespace {

using namespace dance;

/// Bitwise float comparison (covers -0.0 and NaN payloads).
bool bit_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Small evaluator in frozen eval mode; fresh per call so tests can mutate.
evalnet::Evaluator make_evaluator(const hwgen::HwSearchSpace& space, int width,
                                  std::uint64_t seed = 0x1f3e) {
  util::Rng rng(seed);
  evalnet::Evaluator::Options opts;
  opts.hwgen.hidden_dim = 24;
  opts.hwgen.num_layers = 3;
  opts.cost.hidden_dim = 24;
  opts.cost.num_layers = 3;
  evalnet::Evaluator ev(width, space, rng, opts);
  ev.set_frozen(true);
  ev.set_training(false);
  return ev;
}

hwgen::HwSearchSpace small_space() {
  return hwgen::HwSearchSpace(
      {.pe_min = 8, .pe_max = 10, .rf_min = 8, .rf_max = 16, .rf_step = 8});
}

std::vector<std::vector<float>> random_rows(int n, int width,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> rows(static_cast<std::size_t>(n));
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(width));
    for (auto& v : row) v = rng.uniform();
  }
  return rows;
}

TEST(infer_mode, ToStringAndParseRoundTrip) {
  for (const auto mode : {infer::Mode::kAutograd, infer::Mode::kFused}) {
    infer::Mode parsed{};
    ASSERT_TRUE(infer::parse_mode(infer::to_string(mode), parsed));
    EXPECT_EQ(parsed, mode);
  }
}

TEST(infer_mode, ParseRejectsUnknownAndLeavesOutputUntouched) {
  infer::Mode mode = infer::Mode::kFused;
  EXPECT_FALSE(infer::parse_mode("FUSED", mode));
  EXPECT_FALSE(infer::parse_mode("", mode));
  EXPECT_FALSE(infer::parse_mode("int4", mode));
  EXPECT_FALSE(infer::parse_mode("int8", mode));
  EXPECT_EQ(mode, infer::Mode::kFused);
}

TEST(infer_mode, EnvKnobSelectsTierAndDegradesToAutograd) {
  ::setenv("DANCE_INFER", "fused", 1);
  EXPECT_EQ(infer::mode_from_env(), infer::Mode::kFused);
  ::setenv("DANCE_INFER", "int8", 1);  // removed tier: treated as unknown
  EXPECT_EQ(infer::mode_from_env(), infer::Mode::kAutograd);
  ::setenv("DANCE_INFER", "warp-speed", 1);
  EXPECT_EQ(infer::mode_from_env(), infer::Mode::kAutograd);
  ::unsetenv("DANCE_INFER");
  EXPECT_EQ(infer::mode_from_env(), infer::Mode::kAutograd);
}

TEST(infer_gemm, BlockedMatchesNaiveTripleLoop) {
  util::Rng rng(0x6e44);
  const int n = 7, k = 33, m = 19;  // straddles both block boundaries
  std::vector<float> a(static_cast<std::size_t>(n) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * m);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  a[5] = 0.0F;  // exercise the zero-skip
  a[40] = 0.0F;

  std::vector<float> ref(static_cast<std::size_t>(n) * m, 0.0F);
  for (int i = 0; i < n; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      for (int j = 0; j < m; ++j) {
        ref[static_cast<std::size_t>(i) * m + j] +=
            av * b[static_cast<std::size_t>(kk) * m + j];
      }
    }
  }

  std::vector<float> c(static_cast<std::size_t>(n) * m, 0.0F);
  tensor::gemm::gemm(a.data(), b.data(), c.data(), n, k, m);
  EXPECT_TRUE(bit_equal(ref.data(), c.data(), ref.size()));
}

TEST(infer_gemm, ZeroTimesNonFinitePoisons) {
  // 0 * NaN must land NaN in C (the PR 5 matmul regression): the zero-skip
  // is only legal while B is finite everywhere.
  const int n = 1, k = 2, m = 1;
  const float a[2] = {0.0F, 0.0F};
  const float b[2] = {std::nanf(""), 1.0F};
  float c[1] = {0.0F};
  tensor::gemm::gemm(a, b, c, n, k, m);
  EXPECT_TRUE(std::isnan(c[0]));
  EXPECT_FALSE(tensor::gemm::all_finite(b, 2));
  EXPECT_TRUE(tensor::gemm::all_finite(a, 2));
}

TEST(infer_plan, CompileExposesCheckpointGeometry) {
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev = make_evaluator(space, width);
  const infer::Plan plan = infer::Plan::compile(ev);

  EXPECT_EQ(plan.arch_width(), width);
  EXPECT_EQ(plan.hw_width(), space.encoding_width());
  // 3-layer trunks: input + one hidden block + head, twice.
  EXPECT_EQ(plan.num_steps(), 6U);
  EXPECT_GT(plan.floats_per_row(), 0U);
  EXPECT_EQ(plan.head_ranges(), ev.hwgen_net().head_ranges());
}

TEST(infer_plan, FreezeRequiresEvalMode) {
  const auto space = small_space();
  auto ev = make_evaluator(space, 8);
  ev.set_training(true);
  EXPECT_THROW((void)ev.freeze(), std::logic_error);
  EXPECT_THROW((void)infer::Plan::compile(ev), std::logic_error);
}

TEST(infer_plan, RunValidatesModeAndBatch) {
  const auto space = small_space();
  auto ev = make_evaluator(space, 8);
  const infer::Plan plan = infer::Plan::compile(ev);
  infer::Arena arena;
  std::vector<float> in(8, 0.5F);
  std::vector<float> metrics(3);
  std::vector<float> hw(static_cast<std::size_t>(plan.hw_width()));

  EXPECT_THROW(
      plan.run(in.data(), 0, metrics.data(), hw.data(), arena),
      std::invalid_argument);
  // The plan runs one way; the autograd tier is served by the Evaluator
  // itself, so an autograd backend compiles no plan at all.
  const serve::SurrogateBackend autograd(ev, infer::Mode::kAutograd);
  EXPECT_EQ(autograd.plan(), nullptr);
}

TEST(infer_plan, FusedBitIdenticalToAutogradOnFixture) {
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev = make_evaluator(space, width);
  const infer::Plan plan = infer::Plan::compile(ev);

  const auto rows = random_rows(5, width, 0xfeed);
  const auto autograd = ev.forward_batch(rows);

  const tensor::Tensor stacked = evalnet::Evaluator::stack_rows(rows);
  infer::Arena arena;
  std::vector<float> metrics(5 * 3);
  std::vector<float> hw(5 * static_cast<std::size_t>(plan.hw_width()));
  plan.run(stacked.data(), 5, metrics.data(), hw.data(), arena);

  EXPECT_TRUE(bit_equal(autograd.metrics.value().data(), metrics.data(),
                        metrics.size()));
  EXPECT_TRUE(
      bit_equal(autograd.hw_encoding.value().data(), hw.data(), hw.size()));
}

TEST(infer_plan, ArenaGrowsMonotonicallyAndIsReused) {
  const auto space = small_space();
  auto ev = make_evaluator(space, 8);
  const infer::Plan plan = infer::Plan::compile(ev);
  infer::Arena arena;
  std::vector<float> in(8 * 16, 0.25F);
  std::vector<float> metrics(3 * 16);
  std::vector<float> hw(static_cast<std::size_t>(plan.hw_width()) * 16);

  plan.run(in.data(), 4, metrics.data(), hw.data(), arena);
  const std::size_t after_four = arena.bytes();
  plan.run(in.data(), 16, metrics.data(), hw.data(), arena);
  const std::size_t after_sixteen = arena.bytes();
  EXPECT_GE(after_sixteen, after_four);
  // Steady state: a smaller batch must not reallocate.
  plan.run(in.data(), 2, metrics.data(), hw.data(), arena);
  EXPECT_EQ(arena.bytes(), after_sixteen);
}

TEST(infer_stack_rows, SingleRowBatchBitIdenticalToForwardDeterministic) {
  // The documented degenerate case: a drained micro-batcher regularly
  // produces one-row batches; they must answer exactly like a single query.
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev = make_evaluator(space, width);

  const auto rows = random_rows(1, width, 0x5eed1);
  const auto batched = ev.forward_batch(rows);
  tensor::Variable single(tensor::Tensor::from({1, width}, rows[0]));
  const auto direct = ev.forward_deterministic(single);

  EXPECT_TRUE(bit_equal(batched.metrics.value().data(),
                        direct.metrics.value().data(),
                        direct.metrics.value().numel()));
  EXPECT_TRUE(bit_equal(batched.hw_encoding.value().data(),
                        direct.hw_encoding.value().data(),
                        direct.hw_encoding.value().numel()));
}

TEST(infer_stack_rows, ValidatesAndLaysOutRowMajor) {
  EXPECT_THROW((void)evalnet::Evaluator::stack_rows({}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)evalnet::Evaluator::stack_rows({{1.0F, 2.0F}, {3.0F}}),
      std::invalid_argument);

  const tensor::Tensor t =
      evalnet::Evaluator::stack_rows({{1.0F, 2.0F}, {3.0F, 4.0F}});
  ASSERT_EQ(t.rows(), 2);
  ASSERT_EQ(t.cols(), 2);
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(0, 1), 2.0F);
  EXPECT_EQ(t.at(1, 0), 3.0F);
  EXPECT_EQ(t.at(1, 1), 4.0F);
}

TEST(infer_backend, FusedTierBitIdenticalToAutogradTier) {
  const auto space = small_space();
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  const int width = arch_space.encoding_width();
  auto ev_a = make_evaluator(space, width);
  auto ev_b = make_evaluator(space, width);  // same seed -> same checkpoint

  serve::SurrogateBackend autograd(ev_a, infer::Mode::kAutograd);
  serve::SurrogateBackend fused(ev_b, infer::Mode::kFused);
  EXPECT_EQ(autograd.infer_mode(), infer::Mode::kAutograd);
  EXPECT_EQ(fused.infer_mode(), infer::Mode::kFused);
  EXPECT_EQ(autograd.plan(), nullptr);
  ASSERT_NE(fused.plan(), nullptr);

  const auto rows = random_rows(6, width, 0xb17);
  std::vector<serve::Request> requests;
  for (const auto& r : rows) requests.push_back(serve::Request{r});

  const auto resp_a = autograd.query_batch(requests);
  const auto resp_f = fused.query_batch(requests);
  ASSERT_EQ(resp_a.size(), resp_f.size());
  for (std::size_t i = 0; i < resp_a.size(); ++i) {
    EXPECT_EQ(resp_a[i].metrics.latency_ms, resp_f[i].metrics.latency_ms);
    EXPECT_EQ(resp_a[i].metrics.energy_mj, resp_f[i].metrics.energy_mj);
    EXPECT_EQ(resp_a[i].metrics.area_mm2, resp_f[i].metrics.area_mm2);
    EXPECT_EQ(resp_a[i].config, resp_f[i].config);
  }
}

TEST(infer_backend, EnvKnobDrivesDefaultConstruction) {
  const auto space = small_space();
  auto ev = make_evaluator(space, 8);
  ::setenv("DANCE_INFER", "fused", 1);
  serve::SurrogateBackend backend(ev);
  EXPECT_EQ(backend.infer_mode(), infer::Mode::kFused);
  ::unsetenv("DANCE_INFER");
}

}  // namespace
