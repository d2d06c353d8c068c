#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "arch/cost_provider.h"
#include "util/artifact.h"

namespace dance::arch {

/// Compiles a provider's full (slot, op, config) table into a DCTB-v1 file
/// (see docs/cost_table.md for the byte layout): fixed 64-byte header
/// carrying the table dimensions, the HwSearchSpace::Options needed to
/// reconstruct H, the ArchSpace encoding width and the clock, followed by
/// the five flat f64 arrays and a trailing FNV-1a checksum over everything
/// before it. Written through util::ArtifactWriter (tmp + rename), so a
/// crash mid-save never leaves a torn file. Returns the checksum; throws
/// util::ArtifactError when the write fails.
std::uint64_t save_cost_table(const TableCostProvider& table,
                              const std::string& path);

/// A compiled cost table mapped read-only from disk. The mapping is
/// verified checksum-first and parsed fully by util::ArtifactReader before
/// the first query; any defect — truncation, bit flips anywhere, a table
/// built for a different architecture space — throws util::ArtifactError
/// from the constructor and nothing is ever served from a bad mapping.
/// Pages are MAP_SHARED, so N processes mapping one artifact share one
/// physical copy and pay zero per-process build time.
class MmapCostTable : public TableCostProvider {
 public:
  /// `arch_space` is the caller's network space (the backbone is not
  /// serialized); the artifact's slot count and encoding width must match.
  MmapCostTable(std::string path, const ArchSpace& arch_space);
  ~MmapCostTable() override;

  MmapCostTable(const MmapCostTable&) = delete;
  MmapCostTable& operator=(const MmapCostTable&) = delete;

  [[nodiscard]] const hwgen::HwSearchSpace& hw_space() const override {
    return hw_space_;
  }
  [[nodiscard]] const ArchSpace& arch_space() const override {
    return arch_space_;
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  [[nodiscard]] std::size_t mapped_bytes() const { return map_.len; }

 private:
  struct Mapping {
    void* addr = nullptr;
    std::size_t len = 0;
    ~Mapping();
  };

  void map_and_parse();

  std::string path_;
  const ArchSpace& arch_space_;
  hwgen::HwSearchSpace hw_space_;
  Mapping map_;
  std::uint64_t checksum_ = 0;
};

/// Factory form of the MmapCostTable constructor, symmetric with
/// arch::build_cost_table. Throws util::ArtifactError on any defect.
[[nodiscard]] std::unique_ptr<MmapCostTable> load_cost_table(
    const std::string& path, const ArchSpace& arch_space);

}  // namespace dance::arch
