#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dance::util {

/// The one failure type of every stored binary artifact (DCTB cost tables,
/// DSNP cache snapshots, nn checkpoints): unreadable, truncated, checksum-
/// corrupt or structurally wrong files, and failed saves. Carries the path,
/// the byte offset at which the parse gave up and — for checksum failures —
/// both sides of the mismatch.
class ArtifactError : public std::runtime_error {
 public:
  ArtifactError(const std::string& message, std::string path,
                std::size_t offset = 0, std::uint64_t expected_checksum = 0,
                std::uint64_t actual_checksum = 0);

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Byte offset at which validation failed (0 when not applicable).
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::uint64_t expected_checksum() const { return expected_; }
  [[nodiscard]] std::uint64_t actual_checksum() const { return actual_; }

 private:
  std::string path_;
  std::size_t offset_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t actual_ = 0;
};

/// Append-only byte sink of a stored artifact. Fields are written in host
/// (little-endian) byte order; seal() appends the u64 FNV-1a checksum
/// (kFnv1aStoredBasis) of every byte before it and saves the image through
/// util::atomic_write_file, so a crash mid-save never leaves a torn file.
class ArtifactWriter {
 public:
  void bytes(const void* p, std::size_t n) {
    if (n == 0) return;  // an empty tensor's data() may be null
    // resize + memcpy rather than append: GCC 12 reports a false
    // -Wstringop-overflow on the inlined range insert.
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  template <typename T>
  void put(T v) {
    bytes(&v, sizeof(v));
  }

  /// Appends the checksum and writes the image to `path`. Returns the
  /// checksum; throws ArtifactError when the write fails.
  std::uint64_t seal(const std::string& path);

 private:
  std::string buf_;
};

/// Bounds-checked reader over a sealed artifact image. The constructor
/// verifies the trailing checksum and then the leading magic before any
/// field is interpreted; every read after that is bounds-checked against
/// the checksummed body and tracks its offset, and finish() rejects
/// trailing bytes. Every failure throws ArtifactError carrying the path and
/// the offset of the offending field.
class ArtifactReader {
 public:
  /// Reads the whole file at `path` and verifies it.
  ArtifactReader(std::string path, std::string_view magic);
  /// Verifies `image` in place (the mmap path); `image` must outlive the
  /// reader and every pointer take() returns.
  ArtifactReader(std::string path, std::string_view magic,
                 std::string_view image);

  ArtifactReader(const ArtifactReader&) = delete;
  ArtifactReader& operator=(const ArtifactReader&) = delete;

  void bytes(void* out, std::size_t n) { std::memcpy(out, take(n), n); }
  template <typename T>
  T get() {
    T v;
    bytes(&v, sizeof(v));
    return v;
  }
  /// Returns a pointer to the next `n` bytes of the image and skips them.
  [[nodiscard]] const char* take(std::size_t n);

  /// Rejects the artifact unless every body byte has been read.
  void finish() const;

  /// Throws ArtifactError at the start of the field read last.
  [[noreturn]] void reject(const std::string& why) const {
    reject_at(why, field_);
  }
  [[noreturn]] void reject_at(const std::string& why,
                              std::size_t offset) const;

  [[nodiscard]] std::size_t offset() const { return at_; }
  [[nodiscard]] std::size_t remaining() const { return body_ - at_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  void verify(std::string_view magic);

  std::string path_;
  std::string owned_;
  std::string_view image_;
  std::size_t body_ = 0;   ///< bytes before the trailing checksum
  std::size_t at_ = 0;     ///< next byte to read
  std::size_t field_ = 0;  ///< start of the field read last
  std::uint64_t checksum_ = 0;
};

}  // namespace dance::util
