#include "cluster/snapshot.h"

#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "util/artifact.h"

namespace dance::cluster {

namespace {

constexpr std::string_view kMagic = "DSNP";
constexpr std::uint32_t kVersion = 1;

/// Counts a failed save or load in cluster.snapshot.errors and rethrows.
template <typename F>
auto counting_errors(F&& body) {
  try {
    return body();
  } catch (const util::ArtifactError&) {
    obs::Registry::global().counter("cluster.snapshot.errors").inc();
    throw;
  }
}

}  // namespace

std::size_t save_snapshot(const serve::ShardedLruCache& cache,
                          int encoding_width, const std::string& path) {
  const auto entries = cache.entries();

  util::ArtifactWriter out;
  out.bytes(kMagic.data(), kMagic.size());
  out.put<std::uint32_t>(kVersion);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(encoding_width));
  out.put<std::uint64_t>(entries.size());
  for (const auto& [key, r] : entries) {
    out.put<std::uint32_t>(static_cast<std::uint32_t>(key.size()));
    out.bytes(key.data(), key.size() * sizeof(float));
    out.put<double>(r.metrics.latency_ms);
    out.put<double>(r.metrics.energy_mj);
    out.put<double>(r.metrics.area_mm2);
    out.put<std::int32_t>(r.config.pe_x);
    out.put<std::int32_t>(r.config.pe_y);
    out.put<std::int32_t>(r.config.rf_size);
    out.put<std::uint8_t>(static_cast<std::uint8_t>(r.config.dataflow));
    out.put<std::uint8_t>(0);  // flags
  }
  counting_errors([&] { return out.seal(path); });
  obs::Registry::global()
      .counter("cluster.snapshot.saved_entries")
      .inc(static_cast<std::uint64_t>(entries.size()));
  return entries.size();
}

std::size_t load_snapshot(const std::string& path, int expected_width,
                          serve::ShardedLruCache& cache) {
  using Entry = std::pair<serve::ShardedLruCache::Key, serve::Response>;
  // Parse fully before the first put() so a truncated/garbled body can
  // never half-populate the cache.
  const std::vector<Entry> parsed = counting_errors([&] {
    util::ArtifactReader in(path, kMagic);
    const auto version = in.get<std::uint32_t>();
    if (version != kVersion) {
      in.reject("unsupported snapshot version " + std::to_string(version));
    }
    const auto width = in.get<std::uint32_t>();
    if (expected_width != 0 && width != 0 &&
        width != static_cast<std::uint32_t>(expected_width)) {
      in.reject("snapshot encoding width " + std::to_string(width) +
                " != expected " + std::to_string(expected_width));
    }
    const auto count = in.get<std::uint64_t>();
    std::vector<Entry> entries;
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto key_len = in.get<std::uint32_t>();
      const char* key_bytes = in.take(key_len * sizeof(float));
      serve::ShardedLruCache::Key key(key_len);
      std::memcpy(key.data(), key_bytes, key_len * sizeof(float));
      serve::Response r;
      r.metrics.latency_ms = in.get<double>();
      r.metrics.energy_mj = in.get<double>();
      r.metrics.area_mm2 = in.get<double>();
      r.config.pe_x = in.get<std::int32_t>();
      r.config.pe_y = in.get<std::int32_t>();
      r.config.rf_size = in.get<std::int32_t>();
      const auto df = in.get<std::uint8_t>();
      if (df >= accel::kAllDataflows.size()) {
        in.reject("snapshot has invalid dataflow " + std::to_string(df));
      }
      r.config.dataflow = accel::kAllDataflows[df];
      (void)in.get<std::uint8_t>();  // flags, reserved
      entries.emplace_back(std::move(key), r);
    }
    in.finish();
    return entries;
  });

  for (const auto& [key, response] : parsed) {
    cache.put(key, response);
  }
  obs::Registry::global()
      .counter("cluster.snapshot.loaded_entries")
      .inc(static_cast<std::uint64_t>(parsed.size()));
  return parsed.size();
}

}  // namespace dance::cluster
