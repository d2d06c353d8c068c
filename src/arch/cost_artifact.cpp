#include "arch/cost_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "obs/registry.h"
#include "util/artifact.h"

namespace dance::arch {

namespace {

// DCTB-v1: fixed 64-byte header, five flat f64 arrays, trailing FNV-1a
// checksum over everything before it. Byte offsets (little-endian):
//
//    0  char[4]  magic "DCTB"
//    4  u32      version (1)
//    8  u32      num_slots
//   12  u32      num_ops (kNumCandidateOps)
//   16  u64      num_configs
//   24  i32[5]   HwSearchSpace::Options {pe_min, pe_max, rf_min, rf_max,
//                rf_step} — enough to reconstruct H at load time
//   44  u32      arch encoding width (slot/op sanity cross-check)
//   48  f64      clock_ghz
//   56  u64      payload_bytes
//   64  f64[]    fixed_cycles[C], fixed_energy[C], area[C],
//                choice_cycles[S*O*C], choice_energy[S*O*C]
// tail  u64      FNV-1a(bytes[0 .. 64+payload_bytes))
constexpr std::string_view kMagic = "DCTB";
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::uint64_t save_cost_table(const TableCostProvider& table,
                              const std::string& path) {
  const auto& view = table.view_;
  const auto slots = static_cast<std::size_t>(view.slots);
  const std::size_t configs = view.num_configs;
  const std::size_t choice_count = slots * kNumCandidateOps * configs;
  const std::size_t payload_bytes =
      (3 * configs + 2 * choice_count) * sizeof(double);

  util::ArtifactWriter out;
  out.bytes(kMagic.data(), kMagic.size());
  out.put<std::uint32_t>(kVersion);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(view.slots));
  out.put<std::uint32_t>(kNumCandidateOps);
  out.put<std::uint64_t>(configs);
  const hwgen::HwSearchSpace::Options& opts = table.hw_space().options();
  for (const std::int32_t v :
       {opts.pe_min, opts.pe_max, opts.rf_min, opts.rf_max, opts.rf_step}) {
    out.put(v);
  }
  out.put<std::uint32_t>(
      static_cast<std::uint32_t>(table.arch_space().encoding_width()));
  out.put<double>(view.clock_ghz);
  out.put<std::uint64_t>(payload_bytes);
  out.bytes(view.fixed_cycles, configs * sizeof(double));
  out.bytes(view.fixed_energy, configs * sizeof(double));
  out.bytes(view.area, configs * sizeof(double));
  out.bytes(view.choice_cycles, choice_count * sizeof(double));
  out.bytes(view.choice_energy, choice_count * sizeof(double));
  const std::uint64_t checksum = out.seal(path);
  obs::Registry::global().counter("costtable.saves").inc();
  return checksum;
}

MmapCostTable::Mapping::~Mapping() {
  if (addr != nullptr) ::munmap(addr, len);
}

MmapCostTable::MmapCostTable(std::string path, const ArchSpace& arch_space)
    : path_(std::move(path)), arch_space_(arch_space) {
  try {
    map_and_parse();
  } catch (const util::ArtifactError&) {
    obs::Registry::global().counter("costtable.load_errors").inc();
    throw;
  }
  obs::Registry::global().counter("costtable.loads").inc();
  obs::Registry::global().counter("costtable.mapped_bytes").inc(map_.len);
}

void MmapCostTable::map_and_parse() {
  const auto os_error = [this](const char* call, int err) {
    return util::ArtifactError(
        std::string(call) + " failed: " + std::strerror(err), path_);
  };
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) throw os_error("open", errno);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw os_error("fstat", err);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw util::ArtifactError("empty file", path_);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  const int err = errno;
  ::close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) throw os_error("mmap", err);
  map_.addr = addr;  // RAII from here: any throw below unmaps
  map_.len = size;

  util::ArtifactReader in(path_, kMagic,
                          {static_cast<const char*>(addr), size});
  const auto version = in.get<std::uint32_t>();
  if (version != kVersion) {
    in.reject("unsupported version " + std::to_string(version));
  }
  const auto num_slots = in.get<std::uint32_t>();
  if (num_slots != static_cast<std::uint32_t>(arch_space_.num_searchable())) {
    in.reject("slot count mismatch (table built for another backbone)");
  }
  if (in.get<std::uint32_t>() != static_cast<std::uint32_t>(kNumCandidateOps)) {
    in.reject("candidate-op count mismatch");
  }
  const std::size_t configs_at = in.offset();
  const auto num_configs = in.get<std::uint64_t>();
  const std::size_t options_at = in.offset();
  hwgen::HwSearchSpace::Options opts;
  for (int* field :
       {&opts.pe_min, &opts.pe_max, &opts.rf_min, &opts.rf_max, &opts.rf_step}) {
    *field = in.get<std::int32_t>();
  }
  if (opts.pe_min <= 0 || opts.pe_max < opts.pe_min || opts.rf_min <= 0 ||
      opts.rf_max < opts.rf_min || opts.rf_step <= 0) {
    in.reject_at("invalid hardware-space options", options_at);
  }
  hw_space_ = hwgen::HwSearchSpace(opts);
  if (num_configs != hw_space_.size()) {
    in.reject_at("config count disagrees with hardware-space options",
                 configs_at);
  }
  if (in.get<std::uint32_t>() !=
      static_cast<std::uint32_t>(arch_space_.encoding_width())) {
    in.reject("architecture encoding width mismatch");
  }
  const auto clock_ghz = in.get<double>();
  if (!(clock_ghz > 0.0)) in.reject("non-positive clock frequency");
  const auto payload_bytes = in.get<std::uint64_t>();
  const std::size_t choice_count =
      static_cast<std::size_t>(num_slots) * kNumCandidateOps * num_configs;
  if (payload_bytes !=
      (3 * static_cast<std::size_t>(num_configs) + 2 * choice_count) *
          sizeof(double)) {
    in.reject("payload size disagrees with table dimensions");
  }
  const auto* payload =
      reinterpret_cast<const double*>(in.take(payload_bytes));
  in.finish();

  view_.fixed_cycles = payload;
  view_.fixed_energy = payload + num_configs;
  view_.area = payload + 2 * num_configs;
  view_.choice_cycles = payload + 3 * num_configs;
  view_.choice_energy = payload + 3 * num_configs + choice_count;
  view_.num_configs = num_configs;
  view_.slots = static_cast<int>(num_slots);
  view_.clock_ghz = clock_ghz;
  checksum_ = in.checksum();
}

MmapCostTable::~MmapCostTable() = default;

std::unique_ptr<MmapCostTable> load_cost_table(const std::string& path,
                                               const ArchSpace& arch_space) {
  return std::make_unique<MmapCostTable>(path, arch_space);
}

}  // namespace dance::arch
