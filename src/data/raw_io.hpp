#pragma once

#include <filesystem>
#include <string>

#include "zc/field_buffer.hpp"
#include "zc/tensor.hpp"

namespace cuzc::data {

/// SDRBench-style raw binary I/O: fields are flat little-endian float32
/// arrays (".f32"/".dat" files) whose shape is supplied out of band —
/// exactly Z-checker's binary input-engine format.
void write_f32(const std::filesystem::path& path, const zc::Tensor3f& field);

/// Read a raw float32 field of the given shape into an aligned slab on
/// the zero-copy data plane. Throws std::runtime_error if the
/// file is missing or its size does not match dims.volume().
[[nodiscard]] zc::FieldRef read_f32(const std::filesystem::path& path, const zc::Dims3& dims);

}  // namespace cuzc::data
