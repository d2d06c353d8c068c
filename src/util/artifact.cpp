#include "util/artifact.h"

#include <utility>

#include "util/fs.h"
#include "util/hash.h"

namespace dance::util {

namespace {
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);
}  // namespace

ArtifactError::ArtifactError(const std::string& message, std::string path,
                             std::size_t offset,
                             std::uint64_t expected_checksum,
                             std::uint64_t actual_checksum)
    : std::runtime_error(path + ": " + message + " (offset " +
                         std::to_string(offset) + ")"),
      path_(std::move(path)),
      offset_(offset),
      expected_(expected_checksum),
      actual_(actual_checksum) {}

std::uint64_t ArtifactWriter::seal(const std::string& path) {
  const std::uint64_t checksum =
      fnv1a(buf_.data(), buf_.size(), kFnv1aStoredBasis);
  put(checksum);
  try {
    atomic_write_file(path, buf_);
  } catch (const std::runtime_error& e) {
    throw ArtifactError(std::string("write failed: ") + e.what(), path);
  }
  return checksum;
}

ArtifactReader::ArtifactReader(std::string path, std::string_view magic)
    : path_(std::move(path)) {
  try {
    owned_ = read_file(path_);
  } catch (const std::runtime_error& e) {
    throw ArtifactError(e.what(), path_);
  }
  image_ = owned_;
  verify(magic);
}

ArtifactReader::ArtifactReader(std::string path, std::string_view magic,
                               std::string_view image)
    : path_(std::move(path)), image_(image) {
  verify(magic);
}

void ArtifactReader::verify(std::string_view magic) {
  const std::size_t size = image_.size();
  if (size < magic.size() + kChecksumBytes) {
    reject_at("truncated: " + std::to_string(size) +
                  " bytes cannot hold the magic and the checksum",
              size);
  }
  body_ = size - kChecksumBytes;
  const bool magic_ok = image_.substr(0, magic.size()) == magic;
  std::memcpy(&checksum_, image_.data() + body_, kChecksumBytes);
  const std::uint64_t actual = fnv1a(image_.data(), body_, kFnv1aStoredBasis);
  // Nothing is interpreted until the whole image verifies; a failed
  // checksum is named after the magic only so that a file of another kind
  // (or an older format) is reported as such.
  if (checksum_ != actual && magic_ok) {
    throw ArtifactError("checksum mismatch", path_, body_, checksum_, actual);
  }
  if (!magic_ok) reject_at("bad magic (not this kind of artifact)", 0);
  at_ = magic.size();
}

const char* ArtifactReader::take(std::size_t n) {
  if (n > remaining()) {
    reject_at("truncated: field needs " + std::to_string(n) +
                  " bytes but only " + std::to_string(remaining()) + " remain",
              at_);
  }
  field_ = at_;
  at_ += n;
  return image_.data() + field_;
}

void ArtifactReader::finish() const {
  if (remaining() != 0) {
    reject_at(std::to_string(remaining()) + " trailing bytes", at_);
  }
}

void ArtifactReader::reject_at(const std::string& why,
                               std::size_t offset) const {
  throw ArtifactError(why, path_, offset);
}

}  // namespace dance::util
