#pragma once

#include <vector>

#include "pattern1.hpp"
#include "pattern2.hpp"
#include "pattern3.hpp"
#include "vgpu/vgpu.hpp"
#include "zc/field_buffer.hpp"
#include "zc/metrics_config.hpp"
#include "zc/report.hpp"
#include "zc/tensor.hpp"

namespace cuzc::cuzc {

/// Full cuZ-Checker assessment output: the report plus the profile of every
/// kernel the coordinator launched, grouped by pattern.
struct CuzcResult {
    zc::AssessmentReport report;
    vgpu::KernelStats pattern1;
    vgpu::KernelStats pattern2;
    vgpu::KernelStats pattern3;

    [[nodiscard]] vgpu::KernelStats total() const {
        vgpu::KernelStats t = pattern1;
        t.name = "cuzc/total";
        t.merge(pattern2);
        t.merge(pattern3);
        return t;
    }
};

/// The GPU module coordinator (paper §III-A): classifies the requested
/// metrics by computational pattern, uploads the field pair to device
/// memory once, and invokes the fused kernel of each enabled pattern.
/// Cross-pattern data reuse: when pattern 1 runs, its error moments feed
/// pattern 2's autocorrelation normalization, saving the extra moments
/// kernel.
[[nodiscard]] CuzcResult assess(vgpu::Device& dev, const zc::Tensor3f& orig,
                                const zc::Tensor3f& dec, const zc::MetricsConfig& cfg,
                                const Pattern3Options& p3_opt = {});

/// Zero-copy variant: the device buffers `adopt` the ref-counted field
/// payloads instead of memcpy-ing them in. The modeled transfer charges
/// and the fault-injection event stream are identical to the Tensor3f
/// overload, so reports are bit-identical either way.
[[nodiscard]] CuzcResult assess(vgpu::Device& dev, const zc::FieldRef& orig,
                                const zc::FieldRef& dec, const zc::MetricsConfig& cfg,
                                const Pattern3Options& p3_opt = {});

/// The same assessment driven from already-uploaded device buffers — the
/// shared core behind `assess` and the `cuzc::serve` workers, which manage
/// upload/reuse of the buffer pair themselves.
[[nodiscard]] CuzcResult assess_device(vgpu::Device& dev, const vgpu::DeviceBuffer<float>& d_orig,
                                       const vgpu::DeviceBuffer<float>& d_dec,
                                       const zc::Dims3& dims, const zc::MetricsConfig& cfg,
                                       const Pattern3Options& p3_opt = {});

}  // namespace cuzc::cuzc
