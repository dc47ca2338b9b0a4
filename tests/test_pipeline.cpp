// Tests for the compressor-integration pipeline.

#include <gtest/gtest.h>

#include "cuzc/cuzc.hpp"
#include "cuzc/pipeline.hpp"
#include "sz/sz.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace sz = ::cuzc::sz;
namespace tst = ::cuzc::testing;

TEST(Pipeline, CompressAndAssessReportsQualityAndPerformance) {
    const zc::Field orig = tst::smooth_field({16, 16, 16}, 3);
    vgpu::Device dev;
    zc::MetricsConfig cfg;
    cfg.ssim_window = 4;
    const auto r = czc::compress_and_assess(dev, orig.view(), 1e-3, cfg);
    EXPECT_GT(r.compression.ratio(), 1.0);
    EXPECT_GT(r.compression.compress_seconds, 0.0);
    EXPECT_GT(r.compression.decompress_seconds, 0.0);
    EXPECT_GT(r.effective_error_bound, 0.0);
    // The assessment must agree with the bound.
    EXPECT_LE(r.assessment.report.reduction.max_abs_err,
              r.effective_error_bound * (1 + 1e-12));
    EXPECT_GT(r.assessment.report.ssim.ssim, 0.9);
}

TEST(Pipeline, AssessCompressedStream) {
    const zc::Field orig = tst::smooth_field({12, 12, 12}, 7);
    sz::SzConfig scfg;
    scfg.abs_error_bound = 1e-2;
    const auto comp = sz::compress(orig.view(), scfg);
    vgpu::Device dev;
    zc::MetricsConfig cfg;
    cfg.ssim_window = 4;
    const auto r = czc::assess_compressed(dev, orig.view(), comp.bytes, cfg);
    EXPECT_DOUBLE_EQ(r.compression.ratio(), comp.compression_ratio());
    EXPECT_LE(r.assessment.report.reduction.max_abs_err, 1e-2 * (1 + 1e-12));
}

TEST(Pipeline, AssessCompressedRejectsWrongShape) {
    const zc::Field a = tst::smooth_field({8, 8, 8}, 1);
    const zc::Field b = tst::smooth_field({8, 8, 9}, 1);
    sz::SzConfig scfg;
    const auto comp = sz::compress(b.view(), scfg);
    vgpu::Device dev;
    EXPECT_THROW((void)czc::assess_compressed(dev, a.view(), comp.bytes, zc::MetricsConfig{}),
                 std::invalid_argument);
}

}  // namespace
