#pragma once

#include "zc/metrics_config.hpp"
#include "zc/report.hpp"
#include "zc/tensor.hpp"

namespace cuzc::ompzc {

/// ompZC — the paper's CPU baseline: Z-checker's metric-oriented analysis
/// kernels parallelized with OpenMP. Every metric remains a separate pass
/// over the data (the design property the paper's pattern-oriented GPU
/// approach removes); only the loops are multithreaded.
///
/// `threads <= 0` uses the OpenMP default.
[[nodiscard]] zc::AssessmentReport assess(const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                                          const zc::MetricsConfig& cfg, int threads = 0);

/// Individual pattern entry points for the per-pattern benchmarks
/// (Figs. 11-12 run one pattern at a time).
[[nodiscard]] zc::ReductionReport reduction_metrics(const zc::Tensor3f& orig,
                                                    const zc::Tensor3f& dec,
                                                    const zc::MetricsConfig& cfg,
                                                    int threads = 0);
[[nodiscard]] zc::StencilReport stencil_metrics(const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                                                const zc::MetricsConfig& cfg, int threads = 0);
[[nodiscard]] zc::SsimReport ssim(const zc::Tensor3f& orig, const zc::Tensor3f& dec,
                                  const zc::MetricsConfig& cfg, int threads = 0);

}  // namespace cuzc::ompzc
