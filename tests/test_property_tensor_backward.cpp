// Property suite: the autograd backward kernels against the per-element
// loops they replaced. The matmul backward runs both products (dA = dC*B^T,
// dB = A^T*dC) on the shared blocked GEMM over transposed copies, and batch
// norm sweeps its per-column statistics and sums row-major. Both promise the
// exact bits of the textbook loops, which are kept below verbatim as the
// oracle. Cases cover shapes that are not multiples of the 32-wide tiles,
// zeros (both signs) where the kernel's zero-skip applies, NaN and +-inf
// planted where a skip could hide them, gradients that already hold a
// partial sum, and pooled as well as serial execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/variable.h"
#include "testing/property.h"
#include "util/parallel.h"

namespace testing_ = dance::testing;

namespace {

using namespace dance;
using tensor::Node;
using tensor::Tensor;
using tensor::Variable;
namespace ops = tensor::ops;

// --- Oracle: the seed's loops, verbatim apart from their operand handles ---

/// Matmul backward for C = A[n,k] * B[k,m] with upstream gradient g [n,m].
/// `ga` / `gb` are null when that parent does not want a gradient.
void oracle_matmul_backward(const float* g, const float* av, const float* bv,
                            float* ga, float* gb, int n, int k, int m) {
  if (ga != nullptr) {
    // dA = dC * B^T (rows of dA are independent -> parallel over i)
    util::parallel_for(0, n, [&](long lo, long hi) {
      for (long i = lo; i < hi; ++i) {
        for (int kk = 0; kk < k; ++kk) {
          const float* brow = bv + static_cast<std::ptrdiff_t>(kk) * m;
          const float* grow = g + static_cast<std::ptrdiff_t>(i) * m;
          float acc = 0.0F;
          for (int j = 0; j < m; ++j) acc += grow[j] * brow[j];
          ga[i * k + kk] += acc;
        }
      }
    }, /*grain=*/std::max(1L, 65536L / std::max(1, k * m)));
  }
  if (gb != nullptr) {
    // dB = A^T * dC (rows of dB are independent -> parallel over kk)
    bool g_finite = true;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n) * m; ++i) {
      if (!std::isfinite(g[i])) {
        g_finite = false;
        break;
      }
    }
    util::parallel_for(0, k, [&](long lo, long hi) {
      for (long kk = lo; kk < hi; ++kk) {
        float* gbrow = gb + static_cast<std::ptrdiff_t>(kk) * m;
        for (int i = 0; i < n; ++i) {
          const float a_ik = av[static_cast<std::ptrdiff_t>(i) * k + kk];
          if (a_ik == 0.0F && g_finite) continue;
          const float* grow = g + static_cast<std::ptrdiff_t>(i) * m;
          for (int j = 0; j < m; ++j) gbrow[j] += a_ik * grow[j];
        }
      }
    }, /*grain=*/std::max(1L, 65536L / std::max(1, n * m)));
  }
}

long row_grain(int d) { return std::max(1L, 2048L / std::max(1, d)); }

struct BnForward {
  Tensor out;
  Tensor x_hat;
  Tensor inv_std;
};

/// Batch norm forward over x [n, d]; updates the running buffers in
/// training mode exactly as ops::batchnorm does.
BnForward oracle_batchnorm_forward(const Tensor& x, const Tensor& gamma,
                                   const Tensor& beta, Tensor& running_mean,
                                   Tensor& running_var, float momentum,
                                   float eps, bool training) {
  const int n = x.rows();
  const int d = x.cols();
  auto mean = std::make_shared<Tensor>(std::vector<int>{d});
  auto inv_std = std::make_shared<Tensor>(std::vector<int>{d});
  if (training) {
    util::parallel_for(0, d, [&](long lo, long hi) {
      for (long c = lo; c < hi; ++c) {
        const int ci = static_cast<int>(c);
        float m = 0.0F;
        for (int r = 0; r < n; ++r) m += x.at(r, ci);
        m /= static_cast<float>(n);
        float v = 0.0F;
        for (int r = 0; r < n; ++r) {
          const float dd = x.at(r, ci) - m;
          v += dd * dd;
        }
        v /= static_cast<float>(n);
        (*mean)[static_cast<std::size_t>(c)] = m;
        (*inv_std)[static_cast<std::size_t>(c)] = 1.0F / std::sqrt(v + eps);
        running_mean[static_cast<std::size_t>(c)] =
            (1.0F - momentum) * running_mean[static_cast<std::size_t>(c)] + momentum * m;
        running_var[static_cast<std::size_t>(c)] =
            (1.0F - momentum) * running_var[static_cast<std::size_t>(c)] + momentum * v;
      }
    }, row_grain(n));
  } else {
    for (int c = 0; c < d; ++c) {
      (*mean)[static_cast<std::size_t>(c)] = running_mean[static_cast<std::size_t>(c)];
      (*inv_std)[static_cast<std::size_t>(c)] =
          1.0F / std::sqrt(running_var[static_cast<std::size_t>(c)] + eps);
    }
  }

  auto x_hat = std::make_shared<Tensor>(std::vector<int>{n, d});
  Tensor out({n, d});
  util::parallel_for(0, n, [&](long lo, long hi) {
    for (long r = lo; r < hi; ++r) {
      const int ri = static_cast<int>(r);
      for (int c = 0; c < d; ++c) {
        const float xh = (x.at(ri, c) - (*mean)[static_cast<std::size_t>(c)]) *
                         (*inv_std)[static_cast<std::size_t>(c)];
        x_hat->at(ri, c) = xh;
        out.at(ri, c) = gamma[static_cast<std::size_t>(c)] * xh +
                        beta[static_cast<std::size_t>(c)];
      }
    }
  }, row_grain(d));
  return {std::move(out), *x_hat, *inv_std};
}

/// Batch norm backward for upstream gradient `grad` [n, d]. The gradient
/// outputs are null when that parent does not want a gradient.
void oracle_batchnorm_backward(const Tensor& grad, const Tensor& x_hat_t,
                               const Tensor& inv_std_t, const Tensor& gamma,
                               bool training, Tensor* gx, Tensor* ggamma,
                               Tensor* gbeta) {
  const int n = grad.rows();
  const int d = grad.cols();
  const Tensor* x_hat = &x_hat_t;
  const Tensor* inv_std = &inv_std_t;
  util::parallel_for(0, d, [&](long lo, long hi) {
    for (long cc = lo; cc < hi; ++cc) {
      const int c = static_cast<int>(cc);
      float sum_dy = 0.0F;
      float sum_dy_xhat = 0.0F;
      for (int r = 0; r < n; ++r) {
        sum_dy += grad.at(r, c);
        sum_dy_xhat += grad.at(r, c) * x_hat->at(r, c);
      }
      if (ggamma != nullptr) (*ggamma)[static_cast<std::size_t>(c)] += sum_dy_xhat;
      if (gbeta != nullptr) (*gbeta)[static_cast<std::size_t>(c)] += sum_dy;
      if (gx != nullptr) {
        const float gamma_c = gamma[static_cast<std::size_t>(c)];
        const float istd = (*inv_std)[static_cast<std::size_t>(c)];
        if (training) {
          const float inv_n = 1.0F / static_cast<float>(n);
          for (int r = 0; r < n; ++r) {
            gx->at(r, c) +=
                gamma_c * istd *
                (grad.at(r, c) - inv_n * sum_dy -
                 inv_n * x_hat->at(r, c) * sum_dy_xhat);
          }
        } else {
          for (int r = 0; r < n; ++r) {
            gx->at(r, c) += gamma_c * istd * grad.at(r, c);
          }
        }
      }
    }
  }, row_grain(n));
}

// --- Harness ----------------------------------------------------------------

/// Bitwise equality, except that any two NaNs match: the contract is the
/// bits of every finite, infinite and zero result (sign of zero included),
/// while a NaN's payload depends on operand order inside one add, which the
/// compiler may commute.
std::string same_bits(const char* what, const Tensor& got, const Tensor& want) {
  if (!got.same_shape(want)) {
    return std::string(what) + ": shape " + got.shape_str() + " vs " +
           want.shape_str();
  }
  for (std::size_t i = 0; i < got.numel(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      return std::string(what) + "[" + std::to_string(i) +
             "]: got " + std::to_string(got[i]) + " want " +
             std::to_string(want[i]);
    }
  }
  return "";
}

/// Runs one op's backward closure with upstream gradient `g`, the way
/// Variable::backward does for a node in the middle of a tape: parents that
/// want gradients keep whatever partial sum they already hold.
void run_node_backward(const Variable& out, const Tensor& g) {
  Node& node = *out.node();
  node.grad = g;
  for (auto& p : node.parents) {
    if (p && p->requires_grad) p->ensure_grad();
  }
  node.backward(node);
}

/// Standard-normal values with about `zero_pct` percent replaced by zeros of
/// either sign.
Tensor sparse_randn(int rows, int cols, int zero_pct, util::Rng& rng) {
  Tensor t = Tensor::randn({rows, cols}, rng);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (rng.randint(0, 99) < zero_pct) t[i] = rng.uniform() < 0.5F ? 0.0F : -0.0F;
  }
  return t;
}

/// 0 = none, 1 = NaN, 2 = +inf, 3 = -inf.
float poison_value(int kind) {
  if (kind == 1) return std::numeric_limits<float>::quiet_NaN();
  return kind == 2 ? std::numeric_limits<float>::infinity()
                   : -std::numeric_limits<float>::infinity();
}

void plant(Tensor& t, int kind, util::Rng& rng) {
  if (kind == 0) return;
  t[static_cast<std::size_t>(rng.randint(0, static_cast<int>(t.numel()) - 1))] =
      poison_value(kind);
}

/// Shrinks one int field of a case toward `target`.
template <typename Case>
void shrink_field(const Case& c, int Case::*field, int target,
                  std::vector<Case>& out) {
  for (long v : testing_::shrink_toward(c.*field, target)) {
    Case t = c;
    t.*field = static_cast<int>(v);
    out.push_back(t);
  }
}

// --- Matmul -----------------------------------------------------------------

struct MatmulCase {
  int n = 1;
  int k = 1;
  int m = 1;
  bool a_grad = true;
  bool b_grad = true;
  int a_zero_pct = 0;
  int g_zero_pct = 0;
  int poison_b = 0;  ///< planted into B (and B2): see poison_value
  int poison_g = 0;  ///< planted into the upstream gradient
  /// A also feeds a second matmul A * B2 [k, m2], whose backward lands on
  /// top of the first one's partial sum in dA.
  int m2 = 0;
  /// Gradients start from a random partial sum (a consumer outside this
  /// case already accumulated into them).
  bool preseeded = false;
  std::uint64_t data_seed = 1;

  [[nodiscard]] std::string to_string() const {
    return "MatmulCase(n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " m=" + std::to_string(m) + " a_grad=" + std::to_string(a_grad) +
           " b_grad=" + std::to_string(b_grad) +
           " a_zero%=" + std::to_string(a_zero_pct) +
           " g_zero%=" + std::to_string(g_zero_pct) +
           " poison_b=" + std::to_string(poison_b) +
           " poison_g=" + std::to_string(poison_g) +
           " m2=" + std::to_string(m2) + " preseeded=" + std::to_string(preseeded) +
           " data_seed=" + std::to_string(data_seed) + ")";
  }
};

testing_::Generator<MatmulCase> matmul_case_gen() {
  testing_::Generator<MatmulCase> gen;
  gen.sample = [](util::Rng& rng) {
    MatmulCase c;
    // Up to ~3 tiles of 32 per dim, with most draws off the tile boundary.
    c.n = rng.randint(1, 96);
    c.k = rng.randint(1, 96);
    c.m = rng.randint(1, 96);
    const int grads = rng.randint(0, 2);  // 0: both, 1: only A, 2: only B
    c.a_grad = grads != 2;
    c.b_grad = grads != 1;
    c.a_zero_pct = rng.randint(0, 9) * 10;
    c.g_zero_pct = rng.randint(0, 9) * 10;
    c.poison_b = rng.uniform() < 0.3F ? rng.randint(1, 3) : 0;
    c.poison_g = rng.uniform() < 0.3F ? rng.randint(1, 3) : 0;
    c.m2 = c.a_grad && rng.uniform() < 0.3F ? rng.randint(1, 48) : 0;
    c.preseeded = rng.uniform() < 0.5F;
    c.data_seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
    return c;
  };
  gen.shrink = [](const MatmulCase& c) {
    std::vector<MatmulCase> out;
    shrink_field(c, &MatmulCase::n, 1, out);
    shrink_field(c, &MatmulCase::k, 1, out);
    shrink_field(c, &MatmulCase::m, 1, out);
    shrink_field(c, &MatmulCase::m2, 0, out);
    shrink_field(c, &MatmulCase::poison_b, 0, out);
    shrink_field(c, &MatmulCase::poison_g, 0, out);
    if (c.preseeded) {
      MatmulCase t = c;
      t.preseeded = false;
      out.push_back(t);
    }
    return out;
  };
  gen.show = [](const MatmulCase& c) { return c.to_string(); };
  return gen;
}

std::string check_matmul_case(const MatmulCase& c) {
  util::Rng rng(c.data_seed);
  const Tensor a = sparse_randn(c.n, c.k, c.a_zero_pct, rng);
  Tensor b = Tensor::randn({c.k, c.m}, rng);
  plant(b, c.poison_b, rng);
  Tensor g = sparse_randn(c.n, c.m, c.g_zero_pct, rng);
  plant(g, c.poison_g, rng);
  Tensor b2;
  Tensor g2;
  if (c.m2 > 0) {
    b2 = Tensor::randn({c.k, c.m2}, rng);
    plant(b2, c.poison_b, rng);
    g2 = sparse_randn(c.n, c.m2, c.g_zero_pct, rng);
  }
  const Tensor ga0 = c.preseeded ? Tensor::randn({c.n, c.k}, rng) : Tensor({c.n, c.k});
  const Tensor gb0 = c.preseeded ? Tensor::randn({c.k, c.m}, rng) : Tensor({c.k, c.m});

  Tensor want_ga = ga0;
  Tensor want_gb = gb0;
  oracle_matmul_backward(g.data(), a.data(), b.data(),
                         c.a_grad ? want_ga.data() : nullptr,
                         c.b_grad ? want_gb.data() : nullptr, c.n, c.k, c.m);
  if (c.m2 > 0) {
    oracle_matmul_backward(g2.data(), a.data(), b2.data(), want_ga.data(),
                           nullptr, c.n, c.k, c.m2);
  }

  for (const bool serial : {false, true}) {
    std::optional<runtime::SerialGuard> guard;
    if (serial) guard.emplace();
    Variable va(a, c.a_grad);
    Variable vb(b, c.b_grad);
    if (c.a_grad) va.node()->grad = ga0;
    if (c.b_grad) vb.node()->grad = gb0;
    run_node_backward(ops::matmul(va, vb), g);
    if (c.m2 > 0) run_node_backward(ops::matmul(va, Variable(b2)), g2);
    const char* mode = serial ? " (serial)" : " (pooled)";
    if (c.a_grad) {
      const std::string e = same_bits("dA", va.grad(), want_ga);
      if (!e.empty()) return e + mode;
    }
    if (c.b_grad) {
      const std::string e = same_bits("dB", vb.grad(), want_gb);
      if (!e.empty()) return e + mode;
    }
  }
  return "";
}

TEST(TensorBackwardProperty, MatmulGradsMatchSeedLoopsBitForBit) {
  const auto result = testing_::check<MatmulCase>(
      "matmul backward vs seed loops", matmul_case_gen(),
      [](const MatmulCase& c, util::Rng&) { return check_matmul_case(c); });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

// --- Batch norm -------------------------------------------------------------

struct BnCase {
  int n = 1;
  int d = 1;
  bool training = true;
  bool x_grad = true;
  bool gamma_grad = true;
  bool beta_grad = true;
  int zero_pct = 0;  ///< of x and of the upstream gradient
  bool preseeded = false;
  std::uint64_t data_seed = 1;

  [[nodiscard]] std::string to_string() const {
    return "BnCase(n=" + std::to_string(n) + " d=" + std::to_string(d) +
           " training=" + std::to_string(training) +
           " grads=" + std::to_string(x_grad) + std::to_string(gamma_grad) +
           std::to_string(beta_grad) + " zero%=" + std::to_string(zero_pct) +
           " preseeded=" + std::to_string(preseeded) +
           " data_seed=" + std::to_string(data_seed) + ")";
  }
};

testing_::Generator<BnCase> bn_case_gen() {
  testing_::Generator<BnCase> gen;
  gen.sample = [](util::Rng& rng) {
    BnCase c;
    c.n = rng.randint(1, 160);
    c.d = rng.randint(1, 160);
    c.training = rng.uniform() < 0.6F;
    c.x_grad = rng.uniform() < 0.8F;
    c.gamma_grad = rng.uniform() < 0.7F;
    c.beta_grad = rng.uniform() < 0.7F;
    c.zero_pct = rng.randint(0, 5) * 10;
    c.preseeded = rng.uniform() < 0.5F;
    c.data_seed = static_cast<std::uint64_t>(rng.randint(1, 1 << 20));
    return c;
  };
  gen.shrink = [](const BnCase& c) {
    std::vector<BnCase> out;
    shrink_field(c, &BnCase::n, 1, out);
    shrink_field(c, &BnCase::d, 1, out);
    shrink_field(c, &BnCase::zero_pct, 0, out);
    return out;
  };
  gen.show = [](const BnCase& c) { return c.to_string(); };
  return gen;
}

std::string check_bn_case(const BnCase& c) {
  constexpr float kMomentum = 0.1F;
  constexpr float kEps = 1e-5F;
  util::Rng rng(c.data_seed);
  Tensor x = sparse_randn(c.n, c.d, c.zero_pct, rng);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 3.0F * x[i] + 0.5F;
  const Tensor gamma = Tensor::randn({c.d}, rng, 1.0F, 0.5F);
  const Tensor beta = Tensor::randn({c.d}, rng);
  const Tensor rm0 = Tensor::randn({c.d}, rng);
  Tensor rv0 = Tensor::randn({c.d}, rng);
  for (std::size_t i = 0; i < rv0.numel(); ++i) rv0[i] = std::abs(rv0[i]) + 0.1F;
  const Tensor g = sparse_randn(c.n, c.d, c.zero_pct, rng);
  const Tensor gx0 = c.preseeded ? Tensor::randn({c.n, c.d}, rng) : Tensor({c.n, c.d});
  const Tensor gg0 = c.preseeded ? Tensor::randn({c.d}, rng) : Tensor({c.d});
  const Tensor gb0 = c.preseeded ? Tensor::randn({c.d}, rng) : Tensor({c.d});

  Tensor want_rm = rm0;
  Tensor want_rv = rv0;
  const BnForward want = oracle_batchnorm_forward(
      x, gamma, beta, want_rm, want_rv, kMomentum, kEps, c.training);
  Tensor want_gx = gx0;
  Tensor want_gg = gg0;
  Tensor want_gb = gb0;
  oracle_batchnorm_backward(g, want.x_hat, want.inv_std, gamma, c.training,
                            c.x_grad ? &want_gx : nullptr,
                            c.gamma_grad ? &want_gg : nullptr,
                            c.beta_grad ? &want_gb : nullptr);

  for (const bool serial : {false, true}) {
    std::optional<runtime::SerialGuard> guard;
    if (serial) guard.emplace();
    const char* mode = serial ? " (serial)" : " (pooled)";
    Variable vx(x, c.x_grad);
    Variable vg(gamma, c.gamma_grad);
    Variable vb(beta, c.beta_grad);
    if (c.x_grad) vx.node()->grad = gx0;
    if (c.gamma_grad) vg.node()->grad = gg0;
    if (c.beta_grad) vb.node()->grad = gb0;
    Tensor rm = rm0;
    Tensor rv = rv0;
    const Variable out =
        ops::batchnorm(vx, vg, vb, rm, rv, kMomentum, kEps, c.training);
    for (const std::string& e :
         {same_bits("out", out.value(), want.out),
          same_bits("running_mean", rm, want_rm),
          same_bits("running_var", rv, want_rv)}) {
      if (!e.empty()) return e + mode;
    }
    if (!out.requires_grad()) continue;
    run_node_backward(out, g);
    if (c.x_grad) {
      const std::string e = same_bits("dx", vx.grad(), want_gx);
      if (!e.empty()) return e + mode;
    }
    if (c.gamma_grad) {
      const std::string e = same_bits("dgamma", vg.grad(), want_gg);
      if (!e.empty()) return e + mode;
    }
    if (c.beta_grad) {
      const std::string e = same_bits("dbeta", vb.grad(), want_gb);
      if (!e.empty()) return e + mode;
    }
  }
  return "";
}

TEST(TensorBackwardProperty, BatchnormMatchesSeedLoopsBitForBit) {
  const auto result = testing_::check<BnCase>(
      "batchnorm forward/backward vs seed loops", bn_case_gen(),
      [](const BnCase& c, util::Rng&) { return check_bn_case(c); });
  EXPECT_TRUE(result.ok) << result.report;
  EXPECT_GE(result.trials_run, 100);
}

}  // namespace
