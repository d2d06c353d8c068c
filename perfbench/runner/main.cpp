// Benchmark runner: runs one workload in this process and prints one JSON
// line with its metrics, output digests and run facts. perfbench/run.py
// starts it with a pinned environment and turns that line into the
// benchmark's result.
//
//   perfbench_runner --workload pipeline|serve_unique|serve_repeat
//                    --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"

extern char** environ;

namespace perfbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string label;
  // cpu user nice system idle iowait irq softirq steal
  unsigned long long field[8] = {};
  if (!(in >> label) || label != "cpu") return 0.0;
  for (auto& f : field) {
    if (!(in >> f)) return 0.0;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(field[7]) / static_cast<double>(hz)
                : 0.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "pipeline|serve_unique|serve_repeat --seed N --seconds S "
               "--trace 0|1 [--tiny] [--corrupt]\n",
               why);
  std::exit(2);
}

/// The benchmark fixes every knob it depends on: one pool lane, and no
/// other DANCE_* variable that could switch a code path (batch size,
/// inference tier, cost mode, profiler...).
void check_environment() {
  const char* lanes = std::getenv("DANCE_NUM_THREADS");
  if (lanes == nullptr || std::strcmp(lanes, "1") != 0) {
    usage("DANCE_NUM_THREADS must be 1");
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DANCE_", 6) == 0 &&
        std::strncmp(*e, "DANCE_NUM_THREADS=", 18) != 0) {
      std::fprintf(stderr, "perfbench_runner: stray knob %s\n", *e);
      usage("clear every DANCE_* variable except DANCE_NUM_THREADS");
    }
  }
}

perfbench::Options parse_args(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (arg == "--corrupt") {
      opts.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     std::isfinite(opts.seconds) && opts.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.trace = value == "1";
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return opts;
}

void print_object(std::ostringstream& out, const perfbench::Metrics& m) {
  out << '{';
  for (std::size_t i = 0; i < m.size(); ++i) {
    char num[40];
    std::snprintf(num, sizeof(num), "%.17g", m[i].second);
    out << (i ? ", " : "") << '"' << m[i].first << "\": " << num;
  }
  out << '}';
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse_args(argc, argv);
  check_environment();

  const double steal0 = perfbench::host_steal_s();
  perfbench::Result r;
  try {
    if (opts.workload == "pipeline") {
      r = perfbench::run_pipeline(opts);
    } else if (opts.workload == "serve_unique" ||
               opts.workload == "serve_repeat") {
      r = perfbench::run_serve(opts);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  const double cpu_s = perfbench::process_cpu_s();
  const double steal_s = perfbench::host_steal_s() - steal0;
  r.record.emplace_back("process_cpu_s", cpu_s);
  r.record.emplace_back("host_steal_s", steal_s);
  if (opts.trace) {
    r.layers.emplace_back("process.cpu_s", cpu_s);
    r.layers.emplace_back("host.steal_s", steal_s);
  }

  std::ostringstream out;
  out << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
      << ", \"trace\": " << (opts.trace ? 1 : 0)
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"e2e\": ";
  print_object(out, r.e2e);
  out << ", \"layers\": ";
  print_object(out, r.layers);
  out << ", \"record\": ";
  print_object(out, r.record);
  out << ", \"digests\": [";
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    out << (i ? ", " : "") << '"' << r.digests[i] << '"';
  }
  out << "]}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}
