#pragma once

// Shared pieces of the benchmark runner: run options, the result record the
// runner prints, and the clocks it reads (wall, process CPU, host steal).

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: a few requests per round and a pipeline of one epoch
  /// per phase, so every code path runs in a second or two.
  bool tiny = false;
  /// Self-test hook: damage one answer after it is produced and before it
  /// is checked, so the check must count exactly one failure.
  bool corrupt = false;
};

using Metrics = std::vector<std::pair<std::string, double>>;

struct Result {
  long attempted = 0;
  long failed = 0;
  /// End-to-end metrics of this process (timed or traced).
  Metrics e2e;
  /// Per-layer metrics; filled only by a traced run.
  Metrics layers;
  /// Run facts that are not metrics: sample counts and result values.
  Metrics record;
  /// One digest per unit of output (per serve round, or per pipeline), so a
  /// traced and an untraced run of one seed can be compared byte for byte.
  std::vector<std::string> digests;
};

Result run_pipeline(const Options& opts);
Result run_serve(const Options& opts);

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// p-th percentile of `samples` (util::percentile: linear interpolation).
[[nodiscard]] inline double percentile(const std::vector<double>& samples,
                                       double p) {
  return dance::util::percentile(std::span<const double>(samples), p);
}

/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Host-wide steal time so far (the `steal` column of /proc/stat's `cpu`
/// line), in seconds; 0 where the file is unreadable.
[[nodiscard]] double host_steal_s();

/// Set-ups timed back to back at the start of a run (the first from process
/// start). Each workload times more later in the run; `setup_s` is the
/// median of all of them.
inline constexpr int kSetupRepeats = 5;

/// 64-bit FNV-1a over `text`, chained from `state`.
[[nodiscard]] inline std::uint64_t fnv1a(const std::string& text,
                                         std::uint64_t state =
                                             0xcbf29ce484222325ULL) {
  for (const unsigned char c : text) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}
[[nodiscard]] std::string hex64(std::uint64_t v);

}  // namespace perfbench
