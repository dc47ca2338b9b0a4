// Tests for the FFT spectral analysis and the compressor-comparison
// utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sz/sz.hpp"
#include "test_helpers.hpp"
#include "zc/zc.hpp"
#include "zfp/fixed_rate.hpp"

namespace {

namespace zc = ::cuzc::zc;
namespace tst = ::cuzc::testing;

TEST(Fft, RoundTripIsIdentity) {
    std::vector<std::complex<double>> data(64);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = {cuzc::data::to_unit(cuzc::data::mix64(i + 1)),
                   cuzc::data::to_unit(cuzc::data::mix64(i + 777))};
    }
    auto copy = data;
    zc::fft(copy);
    zc::fft(copy, /*inverse=*/true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(copy[i].real(), data[i].real(), 1e-12);
        EXPECT_NEAR(copy[i].imag(), data[i].imag(), 1e-12);
    }
}

TEST(Fft, PureToneConcentratesAtItsFrequency) {
    constexpr std::size_t kN = 256;
    constexpr std::size_t kFreq = 17;
    std::vector<float> signal(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        signal[i] = static_cast<float>(
            std::sin(2.0 * std::numbers::pi * kFreq * static_cast<double>(i) / kN));
    }
    const auto amp = zc::amplitude_spectrum(signal);
    ASSERT_EQ(amp.size(), kN / 2 + 1);
    // Amplitude 0.5 at the tone (half in the mirrored bin), ~0 elsewhere
    // (tolerances bounded by the float32 input quantization).
    EXPECT_NEAR(amp[kFreq], 0.5, 1e-6);
    for (std::size_t k = 0; k < amp.size(); ++k) {
        if (k != kFreq) {
            EXPECT_LT(amp[k], 1e-6) << "leakage at " << k;
        }
    }
}

TEST(Fft, DcComponentIsTheMean) {
    std::vector<float> signal(128, 3.0f);
    const auto amp = zc::amplitude_spectrum(signal);
    EXPECT_NEAR(amp[0], 3.0, 1e-12);
}

TEST(Fft, NonPowerOfTwoInputIsTruncated) {
    std::vector<float> signal(100, 1.0f);
    const auto amp = zc::amplitude_spectrum(signal);
    EXPECT_EQ(amp.size(), 64u / 2 + 1);  // pow2 floor of 100 is 64
}

TEST(Spectral, IdenticalDataHasZeroAmplitudeError) {
    // 8*8*16 = 1024 samples -> full spectrum has 513 coefficients; the
    // report caps at 512 but "first damaged frequency" (none) reports the
    // uncapped spectrum length.
    const zc::Field f = tst::smooth_field({8, 8, 16}, 3);
    const auto r = zc::spectral_metrics(f.view(), f.view());
    EXPECT_DOUBLE_EQ(r.max_rel_amp_err, 0.0);
    EXPECT_DOUBLE_EQ(r.mean_rel_amp_err, 0.0);
    EXPECT_EQ(r.first_damaged_freq, 513u);
    EXPECT_EQ(r.amp_orig.size(), 512u);
    EXPECT_EQ(r.amp_orig.size(), r.amp_dec.size());
}

TEST(Spectral, HighFrequencyNoiseShowsInTheTail) {
    constexpr std::size_t kN = 1024;
    zc::Field orig(zc::Dims3{1, 1, kN});
    zc::Field dec(zc::Dims3{1, 1, kN});
    for (std::size_t i = 0; i < kN; ++i) {
        const double base =
            std::sin(2.0 * std::numbers::pi * 3.0 * static_cast<double>(i) / kN);
        orig.data()[i] = static_cast<float>(base);
        // Alternating-sign (Nyquist-frequency) perturbation.
        dec.data()[i] = static_cast<float>(base + (i % 2 == 0 ? 0.2 : -0.2));
    }
    const auto r = zc::spectral_metrics(orig.view(), dec.view(), 1024);
    // The damage concentrates at the Nyquist bin.
    const std::size_t nyquist = r.amp_orig.size() - 1;
    EXPECT_NEAR(r.amp_dec[nyquist] - r.amp_orig[nyquist], 0.2, 1e-9);
    EXPECT_GT(r.max_rel_amp_err, 0.1);
    EXPECT_GT(r.first_damaged_freq, 100u) << "low frequencies should be intact";
}

TEST(Spectral, MaxCoeffsCapsReportedSpectra) {
    const zc::Field f = tst::smooth_field({8, 8, 32}, 1);
    const auto r = zc::spectral_metrics(f.view(), f.view(), 10);
    EXPECT_EQ(r.amp_orig.size(), 10u);
}

TEST(Compare, OrientationAwareWinners) {
    zc::AssessmentReport a, b;
    a.reduction.psnr_db = 60;
    b.reduction.psnr_db = 50;  // higher better -> a
    a.reduction.mse = 1e-6;
    b.reduction.mse = 1e-4;  // lower better -> a
    a.ssim.ssim = 0.9;
    b.ssim.ssim = 0.99;  // -> b
    const auto c = zc::compare_reports(a, b);
    int psnr_w = 0, mse_w = 0, ssim_w = 0;
    for (const auto& m : c.metrics) {
        if (m.metric == "psnr_db") psnr_w = m.winner;
        if (m.metric == "mse") mse_w = m.winner;
        if (m.metric == "ssim") ssim_w = m.winner;
    }
    EXPECT_EQ(psnr_w, 1);
    EXPECT_EQ(mse_w, 1);
    EXPECT_EQ(ssim_w, -1);
    EXPECT_GE(c.wins_a, 2);
    EXPECT_GE(c.wins_b, 1);
}

TEST(Compare, TiesWithinTolerance) {
    zc::AssessmentReport a, b;
    a.reduction.psnr_db = 60.0;
    b.reduction.psnr_db = 60.0 + 1e-9;
    const auto c = zc::compare_reports(a, b);
    for (const auto& m : c.metrics) {
        EXPECT_EQ(m.winner, 0) << m.metric;
    }
    EXPECT_EQ(c.wins_a, 0);
    EXPECT_EQ(c.wins_b, 0);
}

TEST(Compare, InfinitePsnrBeatsFinite) {
    zc::AssessmentReport a, b;
    a.reduction.psnr_db = std::numeric_limits<double>::infinity();
    b.reduction.psnr_db = 80.0;
    const auto c = zc::compare_reports(a, b);
    for (const auto& m : c.metrics) {
        if (m.metric == "psnr_db") {
            EXPECT_EQ(m.winner, 1);
        }
    }
}

TEST(Compare, EndToEndSzVersusZfpAtSameRatio) {
    // Realistic use: both codecs at ~4:1; the error-bounded one should win
    // the majority of quality metrics.
    const zc::Field orig = tst::smooth_field({16, 16, 16}, 9);
    cuzc::sz::SzConfig scfg;
    scfg.abs_error_bound = 2e-3;
    const auto sz_dec = cuzc::sz::decompress(cuzc::sz::compress(orig.view(), scfg).bytes);
    cuzc::zfp::ZfpConfig zcfg;
    zcfg.rate_bits = 8.0;
    const auto zfp_dec =
        cuzc::zfp::decompress_fixed_rate(cuzc::zfp::compress_fixed_rate(orig.view(), zcfg).bytes);

    zc::MetricsConfig cfg;
    cfg.ssim_window = 4;
    const auto ra = zc::assess(orig.view(), sz_dec.view(), cfg);
    const auto rb = zc::assess(orig.view(), zfp_dec.view(), cfg);
    const auto c = zc::compare_reports(ra, rb);
    EXPECT_GT(c.wins_a + c.wins_b + c.ties, 5);
}

}  // namespace
