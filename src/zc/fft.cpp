#include "fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace cuzc::zc {

namespace {

// Only asserts call it, and NDEBUG compiles those out.
[[maybe_unused]] bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

[[nodiscard]] std::size_t pow2_floor(std::size_t n) {
    std::size_t p = 1;
    while (p * 2 <= n) p *= 2;
    return p;
}

}  // namespace

void fft(std::span<std::complex<double>> data, bool inverse) {
    const std::size_t n = data.size();
    assert(is_pow2(n) && "fft requires a power-of-two length");
    if (n <= 1) return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1) j ^= bit;
        j ^= bit;
        if (i < j) std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double angle =
            (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
        const std::complex<double> wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            std::complex<double> w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const std::complex<double> u = data[i + k];
                const std::complex<double> v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    if (inverse) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (auto& x : data) x *= inv_n;
    }
}

std::vector<double> amplitude_spectrum(std::span<const float> signal) {
    const std::size_t n = pow2_floor(signal.size());
    if (n == 0) return {};
    std::vector<std::complex<double>> buf(n);
    for (std::size_t i = 0; i < n; ++i) buf[i] = std::complex<double>(signal[i], 0.0);
    fft(buf);
    std::vector<double> amp(n / 2 + 1);
    for (std::size_t k = 0; k <= n / 2; ++k) {
        amp[k] = std::abs(buf[k]) / static_cast<double>(n);
    }
    return amp;
}

SpectralReport spectral_metrics(const Tensor3f& orig, const Tensor3f& dec,
                                std::size_t max_coeffs) {
    SpectralReport out;
    if (orig.size() == 0 || orig.size() != dec.size()) return out;
    std::vector<double> ao = amplitude_spectrum(orig.data());
    std::vector<double> ad = amplitude_spectrum(dec.data());
    if (ao.empty()) return out;

    double max_amp = 0;
    for (const double a : ao) max_amp = std::max(max_amp, a);
    if (max_amp == 0) max_amp = 1.0;

    double sum = 0, worst = 0;
    out.first_damaged_freq = ao.size();
    for (std::size_t k = 0; k < ao.size(); ++k) {
        const double rel = std::fabs(ad[k] - ao[k]) / max_amp;
        sum += rel;
        worst = std::max(worst, rel);
        if (rel > 0.1 && out.first_damaged_freq == ao.size()) {
            out.first_damaged_freq = k;
        }
    }
    out.max_rel_amp_err = worst;
    out.mean_rel_amp_err = sum / static_cast<double>(ao.size());

    const std::size_t keep = std::min(max_coeffs, ao.size());
    ao.resize(keep);
    ad.resize(keep);
    out.amp_orig = std::move(ao);
    out.amp_dec = std::move(ad);
    return out;
}

}  // namespace cuzc::zc
