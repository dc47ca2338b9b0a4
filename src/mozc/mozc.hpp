#pragma once

#include "vgpu/vgpu.hpp"
#include "zc/metrics_config.hpp"
#include "zc/report.hpp"
#include "zc/tensor.hpp"

namespace cuzc::mozc {

/// moZC assessment output with per-pattern aggregated kernel profiles.
struct MozcResult {
    zc::AssessmentReport report;
    vgpu::KernelStats pattern1;
    vgpu::KernelStats pattern2;
    vgpu::KernelStats pattern3;

    [[nodiscard]] vgpu::KernelStats total() const {
        vgpu::KernelStats t = pattern1;
        t.name = "mozc/total";
        t.merge(pattern2);
        t.merge(pattern3);
        return t;
    }
};

/// moZC — the paper's metric-oriented GPU baseline (§IV-B): a
/// straightforward CUDA port of Z-checker where every metric is its own
/// kernel. Category-I metrics each run a CUB-style device-wide reduction
/// (two launches apiece); the PDFs are separate histogram kernels; the
/// derivative orders and autocorrelation are three separate stencil
/// launches that each re-read the data; SSIM runs the pattern-3 kernel
/// without the FIFO buffer, re-reducing every window's slices.
[[nodiscard]] MozcResult assess(vgpu::Device& dev, const zc::Tensor3f& orig,
                                const zc::Tensor3f& dec, const zc::MetricsConfig& cfg);

}  // namespace cuzc::mozc
