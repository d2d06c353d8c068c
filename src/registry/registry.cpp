#include "registry/registry.h"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "obs/registry.h"
#include "util/hash.h"
#include "util/rng.h"

namespace dance::registry {

namespace {

std::atomic<std::uint64_t> g_resident{0};

obs::Counter& publishes_counter() {
  return obs::Registry::global().counter("registry.publishes");
}
obs::Counter& swaps_counter() {
  return obs::Registry::global().counter("registry.swaps");
}

}  // namespace

std::uint64_t model_name_hash(const std::string& name) {
  return util::fnv1a(name.data(), name.size(), util::kFnv1aStoredBasis);
}

ModelVersion::ModelVersion(std::string model, std::uint64_t generation,
                           std::uint64_t model_hash,
                           std::unique_ptr<evalnet::Evaluator> evaluator)
    : model_(std::move(model)),
      generation_(generation),
      model_hash_(model_hash),
      evaluator_(std::move(evaluator)),
      backend_(std::make_unique<serve::SurrogateBackend>(*evaluator_)) {
  g_resident.fetch_add(1, std::memory_order_relaxed);
  obs::Registry::global()
      .gauge("registry.pinned_generations")
      .set(static_cast<double>(resident_count()));
}

ModelVersion::~ModelVersion() {
  g_resident.fetch_sub(1, std::memory_order_relaxed);
  obs::Registry::global()
      .gauge("registry.pinned_generations")
      .set(static_cast<double>(resident_count()));
}

std::uint64_t ModelVersion::resident_count() {
  return g_resident.load(std::memory_order_relaxed);
}

std::vector<serve::Response> ModelVersion::answer(
    std::span<const serve::Request> requests) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<serve::Response> responses = backend_->query_batch(requests);
  for (auto& r : responses) r.generation = generation_;
  return responses;
}

ModelRegistry::ModelRegistry(std::string dir,
                             const hwgen::HwSearchSpace& hw_space)
    : dir_(std::move(dir)), hw_space_(hw_space) {
  manifest_ = Manifest::load(dir_);
  for (const auto& [name, m] : manifest_.models) {
    Entry e;
    if (m.live != 0) e.live = load_version(m, m.live);
    if (m.candidate != 0) e.candidate = load_version(m, m.candidate);
    entries_.emplace(name, std::move(e));
  }
}

void ModelRegistry::init(const std::string& dir) {
  Manifest{}.save(dir);
}

std::unique_ptr<evalnet::Evaluator> ModelRegistry::build_evaluator(
    const ManifestModel& m, std::uint64_t generation) const {
  const auto gen = m.generations.find(generation);
  if (gen == m.generations.end()) {
    throw std::runtime_error("registry: model " + m.name +
                             " has no generation " +
                             std::to_string(generation));
  }
  // The RNG only seeds the initial weights, which the checkpoint loads
  // replace entirely; any seed yields the same evaluator.
  util::Rng rng(13);
  auto evaluator = std::make_unique<evalnet::Evaluator>(m.arch_width,
                                                        hw_space_, rng, m.opts);
  const std::string base = dir_ + "/" + gen->second;
  evaluator->hwgen_net().load(base + ".hwgen.ckpt");
  evaluator->cost_net().load(base + ".cost.ckpt");
  return evaluator;
}

std::unique_ptr<evalnet::Evaluator> ModelRegistry::load_evaluator(
    const std::string& model, std::uint64_t generation) const {
  ManifestModel m;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = manifest_.models.find(model);
    if (it == manifest_.models.end()) {
      throw std::runtime_error("registry: unknown model " + model);
    }
    m = it->second;
  }
  return build_evaluator(m, generation);
}

VersionPtr ModelRegistry::load_version(const ManifestModel& m,
                                       std::uint64_t generation) const {
  return std::make_shared<const ModelVersion>(m.name, generation,
                                              model_name_hash(m.name),
                                              build_evaluator(m, generation));
}

VersionPtr ModelRegistry::pin(const std::string& model) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(model);
  if (it == entries_.end()) {
    throw std::runtime_error("registry: unknown model " + model);
  }
  if (!it->second.live) {
    throw std::runtime_error("registry: model " + model +
                             " has no live generation");
  }
  return it->second.live;
}

VersionPtr ModelRegistry::pin_candidate(const std::string& model) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = entries_.find(model);
  return it == entries_.end() ? nullptr : it->second.candidate;
}

serve::Request ModelRegistry::make_request(const VersionPtr& version,
                                           std::vector<float> encoding) {
  serve::Request r;
  r.encoding = std::move(encoding);
  r.scope_model = version->model_hash();
  r.scope_generation = version->generation();
  r.pin = version;
  return r;
}

std::uint64_t ModelRegistry::publish(const std::string& model,
                                     evalnet::Evaluator& evaluator,
                                     bool as_candidate) {
  // Snapshot manifest state; do the slow work (checkpoint writes, reload)
  // outside the lock so pins and queries proceed during a publish.
  ManifestModel m;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = manifest_.models.find(model);
    if (it != manifest_.models.end()) {
      m = it->second;
    } else {
      // First publish of this model: geometry comes from the evaluator.
      m.name = model;
      m.arch_width = evaluator.arch_encoding_width();
      m.opts = evaluator.options();
    }
  }
  const std::uint64_t gen =
      m.generations.empty() ? 1 : m.generations.rbegin()->first + 1;
  const std::string prefix = model + "-gen" + std::to_string(gen);
  const std::string base = dir_ + "/" + prefix;
  evaluator.hwgen_net().save(base + ".hwgen.ckpt");
  evaluator.cost_net().save(base + ".cost.ckpt");

  m.generations.emplace(gen, prefix);
  if (as_candidate) {
    m.candidate = gen;
  } else {
    m.live = gen;
  }

  // Load the resident copy back from the files just written: validates the
  // round-trip and guarantees the served weights are exactly the on-disk
  // bytes every other shard will load.
  VersionPtr fresh = load_version(m, gen);

  std::lock_guard<std::mutex> lk(mu_);
  manifest_.models[model] = m;
  manifest_.save(dir_);
  Entry& e = entries_[model];
  if (as_candidate) {
    e.candidate = fresh;
  } else {
    e.live = fresh;  // the RCU swap: old pins keep the old version alive
    if (m.candidate == 0) e.candidate = nullptr;
    swaps_counter().inc();
  }
  publishes_counter().inc();
  return gen;
}

std::uint64_t ModelRegistry::promote(const std::string& model) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = manifest_.models.find(model);
  if (it == manifest_.models.end()) {
    throw std::runtime_error("registry: unknown model " + model);
  }
  ManifestModel& m = it->second;
  if (m.candidate == 0) return 0;
  const std::uint64_t gen = m.candidate;
  m.live = gen;
  m.candidate = 0;
  manifest_.save(dir_);
  Entry& e = entries_[model];
  e.live = e.candidate;
  e.candidate = nullptr;
  swaps_counter().inc();
  return gen;
}

std::size_t ModelRegistry::reload() {
  Manifest fresh = Manifest::load(dir_);

  // Decide what needs (re)loading against the current residency, load
  // outside the lock, then swap.
  struct Pending {
    std::string model;
    std::uint64_t live = 0;       ///< 0 = keep current
    std::uint64_t candidate = 0;  ///< 0 = keep/clear per manifest
  };
  std::vector<Pending> pending;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [name, m] : fresh.models) {
      const auto it = entries_.find(name);
      Pending p{name, 0, 0};
      const std::uint64_t cur_live =
          (it != entries_.end() && it->second.live)
              ? it->second.live->generation()
              : 0;
      const std::uint64_t cur_cand =
          (it != entries_.end() && it->second.candidate)
              ? it->second.candidate->generation()
              : 0;
      if (m.live != 0 && m.live != cur_live) p.live = m.live;
      if (m.candidate != 0 && m.candidate != cur_cand) {
        p.candidate = m.candidate;
      }
      if (p.live != 0 || p.candidate != 0) pending.push_back(p);
    }
  }

  std::size_t swapped = 0;
  std::map<std::string, Entry> loaded;
  for (const auto& p : pending) {
    const ManifestModel& m = fresh.models.at(p.model);
    Entry e;
    if (p.live != 0) e.live = load_version(m, p.live);
    if (p.candidate != 0) e.candidate = load_version(m, p.candidate);
    loaded.emplace(p.model, std::move(e));
  }

  std::lock_guard<std::mutex> lk(mu_);
  manifest_ = std::move(fresh);
  for (auto& [name, e] : loaded) {
    Entry& cur = entries_[name];
    if (e.live) {
      cur.live = std::move(e.live);
      swaps_counter().inc();
      ++swapped;
    }
    if (e.candidate) {
      cur.candidate = std::move(e.candidate);
      ++swapped;
    }
  }
  // A candidate the new manifest no longer stages is dropped (promoted
  // elsewhere or abandoned); pins keep it alive until they drain.
  for (auto& [name, e] : entries_) {
    const auto it = manifest_.models.find(name);
    if (it != manifest_.models.end() && it->second.candidate == 0) {
      e.candidate = nullptr;
    }
  }
  return swapped;
}

std::vector<std::string> ModelRegistry::models() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(manifest_.models.size());
  for (const auto& [name, m] : manifest_.models) out.push_back(name);
  return out;
}

std::uint64_t ModelRegistry::live_generation(const std::string& model) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = manifest_.models.find(model);
  return it == manifest_.models.end() ? 0 : it->second.live;
}

std::vector<serve::Response> RegistryBackend::query_batch(
    std::span<const serve::Request> requests) {
  std::vector<serve::Response> out(requests.size());
  // Group by pinned version, preserving order within each group. Batches
  // usually hold one version; the map stays tiny.
  std::map<const ModelVersion*, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto* version =
        static_cast<const ModelVersion*>(requests[i].pin.get());
    if (version == nullptr) {
      throw std::runtime_error(
          "registry backend: request carries no generation pin");
    }
    groups[version].push_back(i);
  }
  for (const auto& [version, indices] : groups) {
    std::vector<serve::Request> sub;
    sub.reserve(indices.size());
    for (const std::size_t i : indices) sub.push_back(requests[i]);
    const auto answered = version->answer(sub);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      out[indices[k]] = answered[k];
    }
  }
  return out;
}

}  // namespace dance::registry
