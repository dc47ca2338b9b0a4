// Validation of the benchmark methodology itself: profiles measured at two
// different scales must extrapolate to consistent full-size estimates, and
// the grid-shape rules must match what the kernels actually launch.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "harness.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace vgpu = ::cuzc::vgpu;
namespace czc = ::cuzc::cuzc;
namespace tst = ::cuzc::testing;
using namespace ::cuzc::bench;

vgpu::KernelStats run_pattern(zc::Pattern p, const zc::Dims3& dims,
                              const zc::MetricsConfig& cfg) {
    const zc::Field orig = tst::smooth_field(dims, 3);
    const zc::Field dec = tst::perturbed(orig, 0.01, 5);
    vgpu::Device dev;
    zc::MetricsConfig only = cfg;
    only.pattern1 = p == zc::Pattern::kGlobalReduction;
    only.pattern2 = p == zc::Pattern::kStencil;
    only.pattern3 = p == zc::Pattern::kSlidingWindow;
    const auto r = czc::assess(dev, orig.view(), dec.view(), only);
    switch (p) {
        case zc::Pattern::kGlobalReduction: return r.pattern1;
        case zc::Pattern::kStencil: return r.pattern2;
        case zc::Pattern::kSlidingWindow: return r.pattern3;
    }
    return {};
}

class ExtrapolationConsistency : public ::testing::TestWithParam<zc::Pattern> {};

TEST_P(ExtrapolationConsistency, TwoScalesAgreeAtFullSize) {
    const zc::Pattern p = GetParam();
    zc::MetricsConfig cfg;
    cfg.ssim_window = 4;
    cfg.autocorr_max_lag = 4;
    // h chosen so (h - wsize + 1) is a multiple of the pattern-3 sweep
    // width (29 owners for wsize 4): the warp-sweep boundary overhead is
    // then the same fraction at every scale and extrapolations can agree.
    const zc::Dims3 full{119, 128, 64};
    const zc::Dims3 half{61, 64, 32};
    const zc::Dims3 quarter{32, 32, 16};

    const auto from_half =
        extrapolate(run_pattern(p, half, cfg), half, full, static_cast<int>(p), cfg);
    const auto from_quarter =
        extrapolate(run_pattern(p, quarter, cfg), quarter, full, static_cast<int>(p), cfg);

    // Grid shape must agree exactly (recomputed from full dims).
    EXPECT_EQ(from_half.blocks, from_quarter.blocks);
    // Volume-scaled counters agree within boundary-tile effects.
    const auto close = [](std::uint64_t a, std::uint64_t b, double tol, const char* what) {
        const double ratio =
            static_cast<double>(std::max(a, b)) / static_cast<double>(std::min(a, b));
        EXPECT_LT(ratio, 1.0 + tol) << what << ": " << a << " vs " << b;
    };
    // Tolerances: the block-level reduction trees cost ops proportional to
    // the block count (not the volume), so small measurement grids carry a
    // boundary overhead that shrinks as the grid grows.
    close(from_half.global_bytes_read, from_quarter.global_bytes_read, 0.30, "global reads");
    close(from_half.lane_ops, from_quarter.lane_ops, 0.45, "lane ops");
    close(from_half.thread_iters, from_quarter.thread_iters, 0.35, "iters");
}

INSTANTIATE_TEST_SUITE_P(Patterns, ExtrapolationConsistency,
                         ::testing::Values(zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                                           zc::Pattern::kSlidingWindow));

TEST(Extrapolation, BlockRulesMatchActualLaunches) {
    zc::MetricsConfig cfg;
    cfg.ssim_window = 8;
    const zc::Dims3 dims{64, 64, 48};
    // Pattern 1: one block per z-slice.
    EXPECT_EQ(run_pattern(zc::Pattern::kGlobalReduction, dims, cfg).blocks,
              extrapolate(run_pattern(zc::Pattern::kGlobalReduction, dims, cfg), dims, dims, 1,
                          cfg)
                  .blocks);
    // Pattern 3: one block per y-window row.
    const auto p3 = run_pattern(zc::Pattern::kSlidingWindow, dims, cfg);
    EXPECT_EQ(p3.blocks, 64u - 8 + 1);
    EXPECT_EQ(extrapolate(p3, dims, dims, 3, cfg).blocks, p3.blocks);
}

TEST(Extrapolation, IdentityWhenDimsMatch) {
    zc::MetricsConfig cfg;
    const auto s = run_pattern(zc::Pattern::kGlobalReduction, {32, 32, 16}, cfg);
    const auto e = extrapolate(s, {32, 32, 16}, {32, 32, 16}, 1, cfg);
    EXPECT_EQ(e.global_bytes_read, s.global_bytes_read);
    EXPECT_EQ(e.lane_ops, s.lane_ops);
    EXPECT_EQ(e.blocks, s.blocks);
    EXPECT_EQ(e.launches, s.launches);
    EXPECT_EQ(e.regs_per_thread, s.regs_per_thread);
    EXPECT_EQ(e.smem_per_block, s.smem_per_block);
}

TEST(Harness, PreparedDatasetsCoverThePaperMatrix) {
    BenchConfig cfg;
    cfg.scale = 32;
    const auto ds = prepare_datasets(cfg);
    ASSERT_EQ(ds.size(), 4u);
    for (const auto& d : ds) {
        EXPECT_GT(d.compression_ratio, 1.0) << d.name;
        EXPECT_EQ(d.orig.dims(), d.run_dims);
        EXPECT_EQ(d.dec.dims(), d.run_dims);
        EXPECT_GE(d.full_dims.volume(), d.run_dims.volume());
    }
    // Aspect relationships that drive the shape effects survive scaling.
    EXPECT_LT(ds[0].run_dims.l, ds[0].run_dims.h);  // Hurricane short z
    EXPECT_EQ(ds[1].run_dims.h, ds[1].run_dims.l);  // NYX cubic
}

TEST(Harness, PatternTimesOrderingHolds) {
    BenchConfig cfg;
    cfg.scale = 16;
    const auto ds = prepare_datasets(cfg);
    const auto mcfg = paper_metrics();
    for (const auto& d : ds) {
        for (const auto p : {zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                             zc::Pattern::kSlidingWindow}) {
            const auto t = pattern_times(d, p, mcfg);
            EXPECT_GT(t.cuzc_s, 0.0);
            // <= because on degenerate scaled shapes (z shrunk to one SSIM
            // window) the no-FIFO baseline has no redundancy left.
            EXPECT_LE(t.cuzc_s, t.mozc_s) << d.name << " pattern " << static_cast<int>(p);
            EXPECT_LT(t.mozc_s, t.ompzc_s) << d.name << " pattern " << static_cast<int>(p);
        }
    }
}

TEST(Harness, Formatting) {
    EXPECT_NE(fmt_time(2.5).find("s"), std::string::npos);
    EXPECT_NE(fmt_time(2.5e-3).find("ms"), std::string::npos);
    EXPECT_NE(fmt_time(2.5e-6).find("us"), std::string::npos);
    EXPECT_NE(fmt_rate(2.0e9).find("GB/s"), std::string::npos);
    EXPECT_NE(fmt_rate(2.0e6).find("MB/s"), std::string::npos);
}

// Strict flag parsing: a malformed flag must stop the bench with the
// usage-error exit code, never run a different workload.
int parse(std::initializer_list<const char*> args, std::size_t& count, std::string& text,
          bool& on) {
    std::vector<const char*> argv{"bench"};
    argv.insert(argv.end(), args);
    std::ostringstream err;
    return parse_flags(static_cast<int>(argv.size()), argv.data(),
                       {{"--requests", &count}, {"--out", &text}, {"--check", &on}}, err);
}

TEST(Harness, ParseFlagsAcceptsWellFormedFlags) {
    std::size_t count = 200;
    std::string text;
    bool on = false;
    ASSERT_EQ(parse({"--requests=12", "--out=x.json", "--check"}, count, text, on), 0);
    EXPECT_EQ(count, 12u);
    EXPECT_EQ(text, "x.json");
    EXPECT_TRUE(on);
    count = 200;
    ASSERT_EQ(parse({}, count, text, on), 0);
    EXPECT_EQ(count, 200u);  // defaults survive
}

TEST(Harness, ParseFlagsRejectsWithUsageExitCode) {
    std::size_t count = 200;
    std::string text;
    bool on = false;
    for (const char* bad : {"--requests=12x",      // trailing garbage
                            "--requests=40x40x40junk",
                            "--requests= 12", "--requests=+12", "--requests=-1",
                            "--requests=99999999999999999999999",  // overflow
                            "--requests=0",                        // zero count
                            "--requests=", "--requests",           // missing value
                            "--trials=3", "--bogus", "requests=12",  // unknown
                            "--check=1", "--out"}) {
        EXPECT_EQ(parse({bad}, count, text, on), 2) << bad;
    }
    EXPECT_EQ(count, 200u);  // nothing half-applied
    EXPECT_FALSE(on);
}

// The list-of-counts kind behind --scales.
int parse_list(const char* arg, std::vector<std::size_t>& counts) {
    const char* argv[] = {"bench", arg};
    std::ostringstream err;
    return parse_flags(2, argv, {{"--scales", &counts}}, err);
}

TEST(Harness, ParseFlagsReadsCountLists) {
    std::vector<std::size_t> scales{8};
    ASSERT_EQ(parse_list("--scales=8,4", scales), 0);
    EXPECT_EQ(scales, (std::vector<std::size_t>{8, 4}));
    ASSERT_EQ(parse_list("--scales=16", scales), 0);
    EXPECT_EQ(scales, (std::vector<std::size_t>{16}));
    for (const char* bad : {"--scales=8x", "--scales=8,,4", "--scales=0", "--scales=8,0",
                            "--scales=8,", "--scales=,8", "--scales=", "--scales",
                            "--scale=8"}) {
        EXPECT_EQ(parse_list(bad, scales), 2) << bad;
    }
    EXPECT_EQ(scales, (std::vector<std::size_t>{16}));
}

// BenchConfig's --scale and CUZC_BENCH_SCALE: a typo must not silently
// select scale 1, the multi-minute full-size run.
int parse_config(std::initializer_list<const char*> args, const char* env, BenchConfig& cfg,
                 bool& check) {
    std::vector<const char*> argv{"bench"};
    argv.insert(argv.end(), args);
    std::ostringstream err;
    return BenchConfig::parse(static_cast<int>(argv.size()), argv.data(), env,
                              {{"--check", &check}}, cfg, err);
}

TEST(Harness, BenchConfigParsesScaleStrictly) {
    BenchConfig cfg;
    bool check = false;
    ASSERT_EQ(parse_config({}, nullptr, cfg, check), 0);
    EXPECT_EQ(cfg.scale, 8u);
    ASSERT_EQ(parse_config({}, "16", cfg, check), 0);
    EXPECT_EQ(cfg.scale, 16u);
    ASSERT_EQ(parse_config({"--scale=4", "--check"}, "16", cfg, check), 0);
    EXPECT_EQ(cfg.scale, 4u);  // the flag overrides the environment
    EXPECT_TRUE(check);

    for (const char* bad : {"--scale=8x", "--scale=0", "--scale=junk", "--scale=99999999999",
                            "--scales=8", "--bogus"}) {
        BenchConfig c;
        bool on = false;
        EXPECT_EQ(parse_config({bad}, nullptr, c, on), 2) << bad;
    }
    for (const char* env : {"junk", "8x", "0", "", "-4", "99999999999"}) {
        BenchConfig c;
        bool on = false;
        EXPECT_EQ(parse_config({}, env, c, on), 2) << "CUZC_BENCH_SCALE=" << env;
    }
}

}  // namespace
