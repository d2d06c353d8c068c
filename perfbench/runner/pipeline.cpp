// The paper's pipeline in the examples/co_exploration configuration, without
// the hardware-oblivious baseline: exact ground truth -> evaluator training
// -> DANCE search -> exact hardware generation -> retraining. Every seed-
// dependent input (task, evaluator init, dataset draw, search and retrain
// streams) comes from --seed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "bench.h"
#include "evalnet/dataset.h"
#include "evalnet/trainer.h"
#include "runtime/profiler.h"
#include "search/dance.h"

namespace perfbench {
namespace {

using namespace dance;

/// Profiler ops reported per layer: the training GEMMs and batch norm, and
/// the two steps they are attributed to.
constexpr const char* kProfiledOps[] = {
    "tensor.matmul.bwd", "tensor.matmul",     "tensor.batchnorm",
    "tensor.batchnorm.bwd", "evalnet.cost.step", "dance.arch_step",
};

struct Config {
  data::SyntheticTaskConfig task;
  int dataset_rows = 3000;
  evalnet::TrainOptions hwgen;
  evalnet::TrainOptions cost;
  nas::SuperNetConfig net;
  search::DanceOptions dance;
};

Config make_config(const Options& opts) {
  Config c;
  c.task.train_samples = opts.tiny ? 256 : 2048;
  c.task.val_samples = opts.tiny ? 128 : 512;
  c.task.seed = opts.seed;
  c.dataset_rows = opts.tiny ? 200 : 3000;
  c.hwgen.epochs = opts.tiny ? 1 : 15;
  c.hwgen.lr = 0.05F;
  c.cost.epochs = opts.tiny ? 1 : 15;
  c.cost.lr = 4e-3F;
  c.net.input_dim = c.task.input_dim;
  c.net.num_classes = c.task.num_classes;
  c.net.width = 48;
  c.dance.search_epochs = opts.tiny ? 1 : 8;
  c.dance.warmup_epochs = opts.tiny ? 0 : 2;
  c.dance.lambda2 = 2.5F;
  c.dance.retrain.epochs = opts.tiny ? 1 : 20;
  c.dance.seed = opts.seed;
  return c;
}

/// Everything the pipeline needs before its first timed phase. Heap-held and
/// never moved: the table and evaluator keep references to the spaces.
struct Setup {
  data::SyntheticTask task;
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  std::unique_ptr<arch::CostTable> table;
  std::unique_ptr<util::Rng> rng;
  std::unique_ptr<evalnet::Evaluator> evaluator;
  double table_build_s = 0.0;
  double table_build_cpu_s = 0.0;
};

std::unique_ptr<Setup> build_setup(const Config& c, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  s->task = data::make_synthetic_task(c.task);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  s->table =
      std::make_unique<arch::CostTable>(s->arch_space, s->hw_space, s->model);
  s->table_build_s = seconds_between(t0, Clock::now());
  s->table_build_cpu_s = process_cpu_s() - cpu0;
  s->rng = std::make_unique<util::Rng>(seed);
  s->evaluator = std::make_unique<evalnet::Evaluator>(
      s->arch_space.encoding_width(), s->hw_space, *s->rng);
  return s;
}

/// Wall and CPU seconds of one pipeline phase.
struct Phase {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class PhaseTimer {
 public:
  PhaseTimer() : t_(Clock::now()), cpu_(process_cpu_s()) {}
  Phase lap() {
    const auto t = Clock::now();
    const double cpu = process_cpu_s();
    const Phase p{seconds_between(t_, t), cpu - cpu_};
    t_ = t;
    cpu_ = cpu;
    return p;
  }

 private:
  Clock::time_point t_;
  double cpu_;
};

struct Run {
  search::SearchOutcome outcome;
  double pipeline_s = 0.0;
  Phase dataset, train_hwgen, train_cost, search_run;
};

Run run_once(const Config& c, Setup& s) {
  Run r;
  PhaseTimer timer;
  const auto start = Clock::now();
  const auto ds = evalnet::generate_evaluator_dataset(
      *s.table, accel::edap_cost(), c.dataset_rows, *s.rng);
  r.dataset = timer.lap();
  const auto [train, val] = evalnet::split_dataset(ds, 0.85);
  (void)evalnet::train_hwgen_net(s.evaluator->hwgen_net(), train, val, c.hwgen);
  r.train_hwgen = timer.lap();
  (void)evalnet::train_cost_net(s.evaluator->cost_net(), train, val, c.cost);
  r.train_cost = timer.lap();
  nas::SuperNetConfig net = c.net;
  net.num_blocks = s.arch_space.num_searchable();
  search::DanceSearch dance(s.task, *s.table, *s.evaluator, net, c.dance);
  r.outcome = dance.run();
  r.search_run = timer.lap();
  r.pipeline_s = seconds_between(start, Clock::now());
  return r;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The outcome's hardware and metrics are exactly what exact hardware
/// generation gives for its architecture, and the run trained one network
/// to a finite accuracy.
bool outcome_ok(const search::SearchOutcome& o,
                const arch::CostProvider& table) {
  const hwgen::HwSearchResult hw =
      table.optimal(o.architecture, accel::edap_cost());
  return hw.config == o.hardware &&
         same_bits(hw.metrics.latency_ms, o.metrics.latency_ms) &&
         same_bits(hw.metrics.energy_mj, o.metrics.energy_mj) &&
         same_bits(hw.metrics.area_mm2, o.metrics.area_mm2) &&
         o.trained_candidates == 1 && std::isfinite(o.val_accuracy_pct) &&
         std::isfinite(o.metrics.edap());
}

std::string outcome_text(const search::SearchOutcome& o) {
  std::string text;
  for (const auto op : o.architecture) text += arch::to_string(op) + ",";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "|%s|%.17g|%.17g|%.17g|%.17g|%d",
                o.hardware.to_string().c_str(), o.val_accuracy_pct,
                o.metrics.latency_ms, o.metrics.energy_mj, o.metrics.area_mm2,
                o.trained_candidates);
  return text + buf;
}

}  // namespace

Result run_pipeline(const Options& opts) {
  const auto process_start = Clock::now();
  const Config cfg = make_config(opts);

  // Set-up is timed kSetupRepeats times before the pipelines and as many
  // times after them, so its median samples the host across the whole run.
  std::vector<double> setup_s;
  std::vector<double> table_s;
  std::vector<double> table_cpu_s;
  std::unique_ptr<Setup> setup;
  const auto set_up = [&](Clock::time_point t0) {
    setup.reset();
    setup = build_setup(cfg, opts.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    table_s.push_back(setup->table_build_s);
    table_cpu_s.push_back(setup->table_build_cpu_s);
  };
  set_up(process_start);
  for (int i = 1; i < kSetupRepeats; ++i) set_up(Clock::now());

  if (opts.trace) {
    runtime::profiler_reset();
    runtime::set_profiling_enabled(true);
  }

  // One pipeline is the unit of work. Another starts only if it is expected
  // to finish within --seconds, each on a fresh set-up of the same seed.
  Result res;
  std::vector<Run> runs;
  double measured_s = 0.0;
  double rss_mb = 0.0;  ///< peak through the first pipeline
  while (runs.empty() ||
         measured_s + measured_s / static_cast<double>(runs.size()) <=
             opts.seconds) {
    if (!runs.empty()) set_up(Clock::now());
    runs.push_back(run_once(cfg, *setup));
    measured_s += runs.back().pipeline_s;
    search::SearchOutcome& o = runs.back().outcome;
    if (opts.corrupt && runs.size() == 1) {
      o.metrics.latency_ms = std::nextafter(o.metrics.latency_ms, 1e300);
    }
    res.digests.push_back(hex64(fnv1a(outcome_text(o))));
    ++res.attempted;
    if (!outcome_ok(o, *setup->table)) ++res.failed;
    if (runs.size() == 1) rss_mb = peak_rss_mb();
  }
  if (opts.trace) runtime::set_profiling_enabled(false);
  for (int i = 0; i < kSetupRepeats; ++i) set_up(Clock::now());

  std::vector<double> pipeline_s;
  std::vector<double> pipeline_cpu_s;
  for (const Run& r : runs) {
    pipeline_s.push_back(r.pipeline_s);
    pipeline_cpu_s.push_back(r.dataset.cpu_s + r.train_hwgen.cpu_s +
                             r.train_cost.cpu_s + r.search_run.cpu_s);
  }
  const Run& first = runs.front();
  res.e2e = {
      {"setup_s", percentile(setup_s, 50.0)},
      {"peak_rss_mb", rss_mb},
      {"success_rate", static_cast<double>(res.attempted - res.failed) /
                           static_cast<double>(res.attempted)},
      {"op_p50_us", 1e6 * percentile(pipeline_s, 50.0)},
      {"op_cpu_us", 1e6 * percentile(pipeline_cpu_s, 50.0)},
  };
  res.record = {
      {"op_samples", static_cast<double>(runs.size())},
      {"pipeline_s", first.pipeline_s},
      {"val_error_pct", first.outcome.error_pct()},
      {"edap", first.outcome.metrics.edap()},
      {"search_s", first.outcome.search_seconds},
      {"measured_s", measured_s},
      {"setup_samples", static_cast<double>(setup_s.size())},
  };
  if (opts.trace) {
    const double search_s = first.outcome.search_seconds;
    const double phases = first.dataset.wall_s + first.train_hwgen.wall_s +
                          first.train_cost.wall_s + first.search_run.wall_s;
    res.layers = {
        {"arch.table_build_s", percentile(table_s, 50.0)},
        {"arch.table_build_cpu_s", percentile(table_cpu_s, 50.0)},
        {"evalnet.dataset_s", first.dataset.wall_s},
        {"evalnet.dataset_cpu_s", first.dataset.cpu_s},
        {"evalnet.train_hwgen_s", first.train_hwgen.wall_s},
        {"evalnet.train_hwgen_cpu_s", first.train_hwgen.cpu_s},
        {"evalnet.train_cost_s", first.train_cost.wall_s},
        {"evalnet.train_cost_cpu_s", first.train_cost.cpu_s},
        {"search.search_s", search_s},
        {"search.finish_s", first.search_run.wall_s - search_s},
        {"search.run_cpu_s", first.search_run.cpu_s},
        {"pipeline.unaccounted_s", first.pipeline_s - phases},
    };
    // The profiler aggregates over every pipeline of the run; report per
    // pipeline.
    const double n = static_cast<double>(runs.size());
    const auto snapshot = runtime::profiler_snapshot();
    for (const char* op : kProfiledOps) {
      runtime::OpStats stats;
      for (const auto& [name, s] : snapshot) {
        if (name == op) stats = s;
      }
      res.layers.emplace_back(std::string("runtime.op_ms.") + op,
                              stats.total_ms / n);
      res.layers.emplace_back(std::string("runtime.op_calls.") + op,
                              static_cast<double>(stats.calls) / n);
    }
  }
  return res;
}

}  // namespace perfbench
