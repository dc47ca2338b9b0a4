#pragma once

#include <span>

#include "coordinator.hpp"
#include "zc/compression_stats.hpp"
#include "zc/metrics_config.hpp"
#include "zc/tensor.hpp"

namespace cuzc::cuzc {

/// Compressor integration — the paper's plan to "incorporate cuZ-Checker
/// with cuSZ to make the assessment more seamless": one call compresses,
/// decompresses, and assesses, returning the quality report together with
/// the compression-performance metrics.
struct PipelineResult {
    CuzcResult assessment;
    zc::CompressionStats compression;
    double effective_error_bound = 0;
};

/// Compress `orig` with the SZ-style codec at `rel_error_bound` (value-range
/// relative), decompress, and assess with every enabled metric.
[[nodiscard]] PipelineResult compress_and_assess(vgpu::Device& dev, const zc::Tensor3f& orig,
                                                 double rel_error_bound,
                                                 const zc::MetricsConfig& cfg);

/// Assess an already-compressed SZ stream against the original.
[[nodiscard]] PipelineResult assess_compressed(vgpu::Device& dev, const zc::Tensor3f& orig,
                                               std::span<const std::uint8_t> sz_stream,
                                               const zc::MetricsConfig& cfg);

}  // namespace cuzc::cuzc
