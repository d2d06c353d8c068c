#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "util/artifact.h"

namespace dance::nn {

namespace {

/// u32 0xDA9CE002 in little-endian byte order.
constexpr std::string_view kMagic("\x02\xE0\x9C\xDA", 4);
constexpr std::uint32_t kMaxRank = 8;

std::string shape_str(const std::vector<int>& shape) {
  std::string s = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(shape[i]);
  }
  return s + "]";
}

}  // namespace

void save_tensors(const std::string& path,
                  const std::vector<const tensor::Tensor*>& tensors) {
  util::ArtifactWriter out;
  out.bytes(kMagic.data(), kMagic.size());
  out.put<std::uint32_t>(static_cast<std::uint32_t>(tensors.size()));
  for (const auto* t : tensors) {
    out.put<std::uint32_t>(static_cast<std::uint32_t>(t->rank()));
    for (const int d : t->shape()) out.put<std::int32_t>(d);
    out.bytes(t->data(), t->numel() * sizeof(float));
  }
  (void)out.seal(path);
}

void load_tensors(const std::string& path,
                  const std::vector<tensor::Tensor*>& tensors,
                  const std::vector<std::string>& names) {
  if (!names.empty() && names.size() != tensors.size()) {
    throw std::runtime_error("load_tensors: " + std::to_string(names.size()) +
                             " names for " + std::to_string(tensors.size()) +
                             " tensors");
  }
  util::ArtifactReader in(path, kMagic);
  const auto count = in.get<std::uint32_t>();
  if (count != tensors.size()) {
    in.reject("tensor count mismatch: file has " + std::to_string(count) +
              ", model expects " + std::to_string(tensors.size()));
  }
  // Parse the whole file before the first copy, so a rejected checkpoint
  // leaves every destination tensor as it was.
  std::vector<const char*> payloads;
  payloads.reserve(tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const tensor::Tensor& t = *tensors[i];
    const std::string name =
        names.empty() ? "tensor #" + std::to_string(i) : names[i];
    const std::size_t at = in.offset();
    const auto rank = in.get<std::uint32_t>();
    if (rank > kMaxRank) {
      in.reject(name + " has rank " + std::to_string(rank));
    }
    std::vector<int> shape(rank);
    for (auto& d : shape) d = in.get<std::int32_t>();
    if (shape != t.shape()) {
      in.reject_at("shape mismatch: " + name + " is " + shape_str(shape) +
                       " in file, " + shape_str(t.shape()) + " in model",
                   at);
    }
    payloads.push_back(in.take(t.numel() * sizeof(float)));
  }
  in.finish();
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const std::size_t n = tensors[i]->numel() * sizeof(float);
    if (n > 0) std::memcpy(tensors[i]->data(), payloads[i], n);
  }
}

void save_parameters(const std::string& path,
                     const std::vector<tensor::Variable>& params) {
  std::vector<const tensor::Tensor*> ts;
  ts.reserve(params.size());
  for (const auto& p : params) ts.push_back(&p.value());
  save_tensors(path, ts);
}

void load_parameters(const std::string& path,
                     std::vector<tensor::Variable>& params,
                     const std::vector<std::string>& names) {
  std::vector<tensor::Tensor*> ts;
  ts.reserve(params.size());
  for (auto& p : params) ts.push_back(&p.value());
  load_tensors(path, ts, names);
}

}  // namespace dance::nn
