// The cost-query workloads: one closed-loop client sends JSON wire lines
// through serve::wire::answer_line, one request in flight at a time, the way
// examples/serve_jsonl reads stdin.
//
//   serve_unique  distinct random architectures against the fused surrogate,
//                 so nearly every request misses the cache and pays the
//                 batcher and a plan forward.
//   serve_repeat  Zipf(1.1) draws over 4,096 architectures against the exact
//                 backend from a cold cache, so most requests are cache reads
//                 and the misses pay CostProvider::optimal.
//
// Requests run in rounds of a fixed size. Each round starts a new Service
// (cold cache), so a round's hit ratio and cache size do not depend on how
// many requests earlier rounds fitted into the run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arch/backbone.h"
#include "arch/cost_table.h"
#include "bench.h"
#include "obs/span.h"
#include "serve/backend.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace dance;

constexpr int kRepeatArchs = 4096;
constexpr double kZipfS = 1.1;
constexpr int kUniqueRound = 4096;
constexpr int kRepeatRound = 40000;
constexpr int kReferenceChunk = 256;

/// Architectures are numbered by their base-kNumCandidateOps digits, one
/// digit per searchable slot.
arch::Architecture arch_from_id(std::int64_t id, int slots) {
  arch::Architecture a;
  for (int s = 0; s < slots; ++s) {
    a.push_back(arch::kAllCandidateOps[static_cast<std::size_t>(
        id % arch::kNumCandidateOps)]);
    id /= arch::kNumCandidateOps;
  }
  return a;
}

std::string request_line(long id, std::int64_t arch_id, int slots) {
  std::string line = "{\"id\": " + std::to_string(id) + ", \"arch\": [";
  for (int s = 0; s < slots; ++s) {
    line += (s ? ", " : "") + std::to_string(arch_id % arch::kNumCandidateOps);
    arch_id /= arch::kNumCandidateOps;
  }
  return line + "]}";
}

std::int64_t arch_count(int slots) {
  std::int64_t n = 1;
  for (int s = 0; s < slots; ++s) n *= arch::kNumCandidateOps;
  return n;
}

/// `count` distinct uniformly random architecture ids.
std::vector<std::int64_t> distinct_ids(util::Rng& rng, int count, int slots) {
  const auto hi = static_cast<int>(arch_count(slots) - 1);
  std::unordered_set<std::int64_t> seen;
  std::vector<std::int64_t> ids;
  ids.reserve(static_cast<std::size_t>(count));
  while (static_cast<int>(ids.size()) < count) {
    const std::int64_t id = rng.randint(0, hi);
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

/// Decorator that times the backend calls the batcher makes. Traced runs
/// only; one client keeps at most one request in flight, so the entry time
/// of the latest call belongs to the request that is waiting for it.
class TimingBackend : public serve::CostQueryBackend {
 public:
  explicit TimingBackend(serve::CostQueryBackend& inner) : inner_(inner) {}

  std::vector<serve::Response> query_batch(
      std::span<const serve::Request> requests) override {
    const auto t0 = Clock::now();
    last_entry_.store(t0.time_since_epoch().count(), std::memory_order_release);
    auto out = inner_.query_batch(requests);
    busy_us_ += us_between(t0, Clock::now());
    ++calls_;
    rows_ += requests.size();
    return out;
  }
  const char* name() const override { return inner_.name(); }

  [[nodiscard]] Clock::time_point last_entry() const {
    return Clock::time_point(
        Clock::duration(last_entry_.load(std::memory_order_acquire)));
  }
  [[nodiscard]] double busy_us() const { return busy_us_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::uint64_t rows() const { return rows_; }

 private:
  serve::CostQueryBackend& inner_;
  std::atomic<Clock::rep> last_entry_{0};
  double busy_us_ = 0.0;
  std::uint64_t calls_ = 0;
  std::uint64_t rows_ = 0;
};

/// Per-stage samples of the traced loop.
struct StageSamples {
  std::vector<double> parse_us;
  std::vector<double> query_us;
  std::vector<double> hit_us;
  std::vector<double> wait_us;  ///< query entry to backend entry, misses
  std::vector<double> serialize_us;
};

/// answer_line rebuilt from its public parts with a timer around each.
/// Must produce the same bytes as wire::answer_line.
std::string traced_answer(const std::string& line,
                          const arch::ArchSpace& space, serve::Service& service,
                          const TimingBackend& timing, StageSamples& s) {
  if (serve::wire::is_blank(line)) return "";
  const auto p0 = Clock::now();
  const serve::wire::ParseOutcome parsed =
      serve::wire::parse_request(line, space);
  s.parse_us.push_back(us_between(p0, Clock::now()));
  if (!parsed.ok) {
    return serve::wire::error_line(parsed.request.id, parsed.error);
  }
  try {
    obs::ScopedSpan request_span("serve.wire.request");
    const auto q0 = Clock::now();
    const serve::Response r =
        service.query(serve::Request{parsed.request.encoding});
    const auto q1 = Clock::now();
    s.query_us.push_back(us_between(q0, q1));
    if (r.cached) {
      s.hit_us.push_back(us_between(q0, q1));
    } else {
      s.wait_us.push_back(us_between(q0, timing.last_entry()));
    }
    std::string out = serve::wire::response_line(parsed.request.id, r);
    s.serialize_us.push_back(us_between(q1, Clock::now()));
    return out;
  } catch (const std::exception& e) {
    return serve::wire::error_line(parsed.request.id, e.what());
  }
}

/// What a workload serves with: the backend the service queries and the
/// state the backend borrows. Heap-held and never moved, like the pipeline's
/// set-up.
struct Stack {
  arch::ArchSpace arch_space{arch::cifar10_backbone()};
  hwgen::HwSearchSpace hw_space;
  accel::CostModel model;
  std::unique_ptr<arch::CostTable> table;          ///< serve_repeat
  std::unique_ptr<util::Rng> rng;                  ///< serve_unique
  std::unique_ptr<evalnet::Evaluator> evaluator;   ///< serve_unique
  std::unique_ptr<serve::CostQueryBackend> backend;
  double table_build_s = 0.0;
  double table_build_cpu_s = 0.0;
};

std::unique_ptr<Stack> build_stack(bool repeat, std::uint64_t seed) {
  auto st = std::make_unique<Stack>();
  if (repeat) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    st->table = std::make_unique<arch::CostTable>(st->arch_space, st->hw_space,
                                                  st->model);
    st->table_build_s = seconds_between(t0, Clock::now());
    st->table_build_cpu_s = process_cpu_s() - cpu0;
    st->backend =
        std::make_unique<serve::ExactBackend>(*st->table, accel::edap_cost());
  } else {
    // The evaluator is freshly initialized, not trained: serving cost does
    // not depend on the weight values, and training would make set-up the
    // pipeline workload's job.
    st->rng = std::make_unique<util::Rng>(seed);
    st->evaluator = std::make_unique<evalnet::Evaluator>(
        st->arch_space.encoding_width(), st->hw_space, *st->rng);
    st->backend = std::make_unique<serve::SurrogateBackend>(
        *st->evaluator, infer::Mode::kFused);
  }
  return st;
}

/// Zipf(s) sampler over ranks [0, n): inverse CDF by binary search.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0.0;
    for (int k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[static_cast<std::size_t>(k)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int draw(util::Rng& rng) const {
    const double u = static_cast<double>(rng.uniform());
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Result run_serve(const Options& opts) {
  const auto process_start = Clock::now();
  const bool repeat = opts.workload == "serve_repeat";

  // Set-up is timed kSetupRepeats times up front and once more before every
  // later round, so its median samples the host across the whole run.
  std::vector<double> setup_s;
  std::vector<double> table_s;
  std::vector<double> table_cpu_s;
  std::unique_ptr<Stack> st;
  const auto set_up = [&](Clock::time_point t0) {
    st.reset();
    st = build_stack(repeat, opts.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    table_s.push_back(st->table_build_s);
    table_cpu_s.push_back(st->table_build_cpu_s);
  };
  set_up(process_start);
  for (int i = 1; i < kSetupRepeats; ++i) set_up(Clock::now());
  const int slots = st->arch_space.num_searchable();

  // serve_repeat's reference: exact hardware generation on the
  // architecture itself, memoized per architecture.
  std::unordered_map<std::int64_t, hwgen::HwSearchResult> exact;

  util::Rng pool_rng(opts.seed);
  const std::vector<std::int64_t> repeat_pool =
      repeat ? distinct_ids(pool_rng, kRepeatArchs, slots)
             : std::vector<std::int64_t>{};
  const Zipf zipf(kRepeatArchs, kZipfS);
  const int round_size =
      opts.tiny ? (repeat ? 400 : 32) : (repeat ? kRepeatRound : kUniqueRound);

  StageSamples stages;
  double backend_us = 0.0;
  std::uint64_t backend_calls = 0;
  std::uint64_t backend_rows = 0;
  std::vector<double> latency_us;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::uint64_t evictions = 0;
  double entries_sum = 0.0;
  double loop_s = 0.0;
  double loop_cpu_s = 0.0;  ///< process CPU, client and batcher threads
  double rss_mb = 0.0;
  Result res;

  for (int round = 0; round == 0 || loop_s < opts.seconds; ++round) {
    if (round > 0) set_up(Clock::now());
    const arch::ArchSpace& space = st->arch_space;

    // Inputs of this round, from the seed and the round number only.
    util::Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL +
                  static_cast<std::uint64_t>(round) + 1);
    std::vector<std::int64_t> ids;
    if (repeat) {
      ids.reserve(static_cast<std::size_t>(round_size));
      for (int i = 0; i < round_size; ++i) {
        ids.push_back(repeat_pool[static_cast<std::size_t>(zipf.draw(rng))]);
      }
    } else {
      ids = distinct_ids(rng, round_size, slots);
    }
    std::vector<std::string> lines;
    lines.reserve(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      lines.push_back(request_line(static_cast<long>(i), ids[i], slots));
    }

    // A cold Service per round; traced rounds query through the timer.
    TimingBackend timing(*st->backend);
    serve::Service service(
        opts.trace ? static_cast<serve::CostQueryBackend&>(timing)
                   : *st->backend,
        serve::Service::Options{});

    std::vector<std::string> answers;
    answers.reserve(lines.size());
    const double cpu0 = process_cpu_s();
    const auto loop0 = Clock::now();
    for (const std::string& line : lines) {
      const auto t0 = Clock::now();
      std::string out =
          opts.trace ? traced_answer(line, space, service, timing, stages)
                     : serve::wire::answer_line(line, space, service);
      latency_us.push_back(us_between(t0, Clock::now()));
      answers.push_back(std::move(out));
    }
    loop_s += seconds_between(loop0, Clock::now());
    loop_cpu_s += process_cpu_s() - cpu0;

    const serve::ServiceStats stats = service.stats();
    backend_us += timing.busy_us();
    backend_calls += timing.calls();
    backend_rows += timing.rows();
    hits += stats.cache.hits;
    lookups += stats.cache.hits + stats.cache.misses;
    evictions += stats.cache.evictions;
    entries_sum += static_cast<double>(stats.cache.entries);

    if (opts.corrupt && round == 0) answers[0][answers[0].size() - 2] ^= 1;

    // Expected answers, built off the clock.
    std::vector<std::string> expected(lines.size());
    if (repeat) {
      std::unordered_set<std::int64_t> seen;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        auto it = exact.find(ids[i]);
        if (it == exact.end()) {
          it = exact
                   .emplace(ids[i],
                            st->table->optimal(arch_from_id(ids[i], slots),
                                               accel::edap_cost()))
                   .first;
        }
        serve::Response r;
        r.metrics = it->second.metrics;
        r.config = it->second.config;
        r.cached = !seen.insert(ids[i]).second;
        expected[i] = serve::wire::response_line(static_cast<long>(i), r);
      }
    } else {
      // serve_unique's reference: the autograd forward of the same
      // evaluator.
      serve::SurrogateBackend reference(*st->evaluator, infer::Mode::kAutograd);
      for (std::size_t at = 0; at < ids.size(); at += kReferenceChunk) {
        const std::size_t stop = std::min(ids.size(), at + kReferenceChunk);
        std::vector<serve::Request> batch;
        for (std::size_t i = at; i < stop; ++i) {
          batch.push_back(serve::Request::from_architecture(
              space, arch_from_id(ids[i], slots)));
        }
        const auto answered = reference.query_batch(batch);
        for (std::size_t i = at; i < stop; ++i) {
          expected[i] = serve::wire::response_line(static_cast<long>(i),
                                                   answered[i - at]);
        }
      }
    }

    std::uint64_t digest = fnv1a("");
    for (std::size_t i = 0; i < answers.size(); ++i) {
      ++res.attempted;
      if (answers[i] != expected[i]) ++res.failed;
      digest = fnv1a(answers[i] + "\n", digest);
    }
    res.digests.push_back(hex64(digest));
    // Peak memory through the first round: later rounds repeat the same
    // work, and how many fit into --seconds depends on speed.
    if (round == 0) rss_mb = peak_rss_mb();
  }

  const double requests = static_cast<double>(latency_us.size());
  res.e2e = {
      {"setup_s", percentile(setup_s, 50.0)},
      {"peak_rss_mb", rss_mb},
      {"success_rate",
       static_cast<double>(res.attempted - res.failed) /
           static_cast<double>(res.attempted)},
      {"op_p50_us", percentile(latency_us, 50.0)},
      {"op_cpu_us", 1e6 * loop_cpu_s / requests},
  };
  // Wall throughput and the upper percentiles are recorded, not bounded: on
  // a shared virtual host they follow vCPU preemption and wake-up delays
  // more than the code.
  res.record = {
      {"op_samples", requests},
      {"rounds", static_cast<double>(res.digests.size())},
      {"round_size", static_cast<double>(round_size)},
      {"cache_hits", static_cast<double>(hits)},
      {"measured_s", loop_s},
      {"ops_per_s", requests / loop_s},
      {"op_p95_us", percentile(latency_us, 95.0)},
      {"op_p99_us", percentile(latency_us, 99.0)},
      {"setup_samples", static_cast<double>(setup_s.size())},
  };
  if (opts.trace) {
    const double calls = static_cast<double>(backend_calls);
    res.layers = {
        {"arch.table_build_s", percentile(table_s, 50.0)},
        {"arch.table_build_cpu_s", percentile(table_cpu_s, 50.0)},
        {"wire.parse_us", percentile(stages.parse_us, 50.0)},
        {"wire.serialize_us", percentile(stages.serialize_us, 50.0)},
        {"serve.query_us", percentile(stages.query_us, 50.0)},
        {"serve.hit_us", percentile(stages.hit_us, 50.0)},
        {"serve.batcher_wait_us", percentile(stages.wait_us, 50.0)},
        {"serve.backend_us", calls > 0 ? backend_us / calls : 0.0},
        {"serve.backend_calls", calls},
        {"serve.batch_size_mean",
         calls > 0 ? static_cast<double>(backend_rows) / calls : 0.0},
        {"serve.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0},
        {"serve.cache_evictions", static_cast<double>(evictions)},
        {"serve.cache_entries",
         entries_sum / static_cast<double>(res.digests.size())},
        {"serve.requests", requests},
        {"serve.hits", static_cast<double>(stages.hit_us.size())},
        {"serve.misses", static_cast<double>(stages.wait_us.size())},
    };
  }
  return res;
}

}  // namespace perfbench

