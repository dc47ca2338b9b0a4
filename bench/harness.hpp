#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cuzc/cuzc.hpp"
#include "data/datasets.hpp"
#include "mozc/mozc.hpp"
#include "vgpu/vgpu.hpp"
#include "zc/zc.hpp"

namespace cuzc::bench {

/// One command-line flag of a bench binary, bound to the variable it sets:
/// a count (`--name=N`, N >= 1), a list of counts (`--name=N,M,...`), a
/// text value (`--name=TEXT`), or a bare switch (`--name`).
struct Flag {
    std::string_view name;  ///< including the leading "--"
    std::variant<std::size_t*, std::vector<std::size_t>*, std::string*, bool*> target;
};

/// Benchmark execution parameters.
///
/// The virtual GPU interprets every lane of every kernel, so running the
/// paper's full-size fields (up to 141M elements) through the whole matrix
/// would take hours on one host core. Instead, kernels execute on
/// `scale`-reduced fields (aspect ratios preserved) and their *counted*
/// profiles are extrapolated to the full published dimensions — bytes, ops,
/// iterations scale with volume; grid sizes are recomputed from the full
/// extents per pattern. The extrapolation is exact for everything the cost
/// model consumes except boundary-tile effects. `scale = 1` runs the real
/// thing. Configure with --scale=N or the CUZC_BENCH_SCALE env var.
struct BenchConfig {
    unsigned scale = 8;
    double sz_rel_bound = 1e-3;

    /// Parse `--scale=N` (default: CUZC_BENCH_SCALE, else 8) and the
    /// bench's own `extra` flags strictly through parse_flags; a usage
    /// error — including a malformed CUZC_BENCH_SCALE — exits with 2.
    static BenchConfig from_args(int argc, char** argv, std::initializer_list<Flag> extra = {});

    /// from_args without the exit: returns 0, or 2 after writing the
    /// reason to `err`. `env_scale` is CUZC_BENCH_SCALE's value (nullptr
    /// when unset).
    [[nodiscard]] static int parse(int argc, const char* const* argv, const char* env_scale,
                                   std::initializer_list<Flag> extra, BenchConfig& cfg,
                                   std::ostream& err);
};

/// One dataset prepared for benchmarking: a representative field pair at
/// scaled dims plus the full paper dims for extrapolation.
struct PreparedDataset {
    std::string name;
    zc::Dims3 full_dims;
    zc::Dims3 run_dims;
    zc::Field orig;
    zc::Field dec;  ///< SZ-compressed + decompressed (the paper's workflow)
    double compression_ratio = 0;
};

[[nodiscard]] std::vector<PreparedDataset> prepare_datasets(const BenchConfig& cfg);

/// Extrapolate a kernel profile measured at `from` dims to `to` dims.
/// Volume-proportional counters scale linearly; the grid size is
/// recomputed by `pattern` (1: one block per z-slice; 2: one block per
/// 16-deep z-chunk; 3: one block per y-window row; 0: grid-stride kernels
/// whose grid caps at a constant — blocks kept per launch).
[[nodiscard]] vgpu::KernelStats extrapolate(const vgpu::KernelStats& stats, const zc::Dims3& from,
                                            const zc::Dims3& to, int pattern,
                                            const zc::MetricsConfig& mcfg);

/// Modeled times of the three frameworks for one pattern on one dataset.
struct PatternTimes {
    double cuzc_s = 0;
    double mozc_s = 0;
    double ompzc_s = 0;
};

/// Run the cuZC and moZC kernels for `pattern` on the prepared dataset,
/// extrapolate to full dims, and model all three frameworks' times
/// (ompZC from the analytic CPU work model at full dims, 20 threads).
[[nodiscard]] PatternTimes pattern_times(const PreparedDataset& ds, zc::Pattern pattern,
                                         const zc::MetricsConfig& mcfg);

/// Parse argv[1..argc) strictly against `flags`: counts go through
/// io::parse_num (no trailing garbage, no sign, no overflow) and must be
/// at least 1; a list holds one or more such counts, comma-separated.
/// Returns 0 on success; on an unknown flag, a malformed or zero count, an
/// empty list element, or a value given to a switch it writes one line to
/// `err` and returns 2, the usage-error exit code.
[[nodiscard]] int parse_flags(int argc, const char* const* argv, std::span<const Flag> flags,
                              std::ostream& err);
[[nodiscard]] inline int parse_flags(int argc, const char* const* argv,
                                     std::initializer_list<Flag> flags, std::ostream& err) {
    return parse_flags(argc, argv, std::span<const Flag>(flags.begin(), flags.size()), err);
}

/// Paper-reported reference ranges, for printing next to measured values.
struct PaperRange {
    double lo = 0, hi = 0;
};

[[nodiscard]] std::string fmt_time(double seconds);
[[nodiscard]] std::string fmt_rate(double bytes_per_s);

/// The paper's evaluation metric configuration (§IV-B): derivative orders
/// 1+2, autocorrelation lags up to 10, SSIM window 8 step 1.
[[nodiscard]] inline zc::MetricsConfig paper_metrics() { return zc::MetricsConfig{}; }

}  // namespace cuzc::bench
