#pragma once

#include <cstddef>
#include <cstdint>

namespace dance::util {

/// The standard 64-bit FNV-1a offset basis.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// The basis the DCTB and DSNP checksums, the hash-ring points and the
/// registry's model-name hashes are computed from: the decimal spelling of
/// kFnv1aBasis with its last digit dropped. Every stored artifact and every
/// ring placement depends on it, so it stays as it is.
inline constexpr std::uint64_t kFnv1aStoredBasis = 1469598103934665603ULL;

/// 64-bit FNV-1a over `n` bytes at `data`, continuing from `h` (pass a
/// previous result to hash a sequence piecewise). The one hash of the
/// project: artifact checksums, cache-key buckets, ring points, model-name
/// hashes and fault-site seeds all go through it.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t n,
                                         std::uint64_t h = kFnv1aBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace dance::util
