#pragma once

#include <string>
#include <vector>

#include "tensor/variable.h"

namespace dance::nn {

/// Save a tensor list to a binary checkpoint through util::ArtifactWriter.
/// Format (host byte order; the checkpoints are caches, not interchange
/// files):
///   u32 magic = 0xDA9CE002     (0xDA9CE001 files carried no checksum)
///   u32 tensor count
///   per tensor: u32 rank (<= 8), i32 dims[rank], f32 payload[numel]
///   u64 checksum               FNV-1a (util::kFnv1aStoredBasis) over every
///                              preceding byte
/// The file is staged in memory and replaced atomically (tmp + rename), so
/// a crash mid-save leaves the previous checkpoint intact rather than a torn
/// prefix. Throws util::ArtifactError when the write fails.
void save_tensors(const std::string& path,
                  const std::vector<const tensor::Tensor*>& tensors);

/// Load a checkpoint into existing tensors. Shapes must match exactly (the
/// model must be constructed with the same configuration). The checksum is
/// verified and the whole file parsed before the first tensor is written,
/// so a rejected checkpoint leaves every destination tensor unchanged. Any
/// defect — unreadable, truncated, bit-flipped, old-format, or a count or
/// shape mismatch — throws util::ArtifactError with the path and byte
/// offset; when `names` is non-empty (parallel to `tensors`) a shape
/// mismatch names the offending tensor, so a bad checkpoint in a
/// multi-model registry directory is identifiable from the message alone.
void load_tensors(const std::string& path,
                  const std::vector<tensor::Tensor*>& tensors,
                  const std::vector<std::string>& names = {});

/// Convenience wrappers over parameter variables (no buffers).
void save_parameters(const std::string& path,
                     const std::vector<tensor::Variable>& params);
void load_parameters(const std::string& path,
                     std::vector<tensor::Variable>& params,
                     const std::vector<std::string>& names = {});

}  // namespace dance::nn
