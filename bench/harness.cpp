#include "harness.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>

#include "io/strict_parse.hpp"
#include "sz/sz.hpp"

namespace cuzc::bench {

namespace {

/// A count flag's value: parse_num-strict, at least 1.
bool parse_count(std::string_view text, std::size_t& out) {
    return io::parse_num(text, out) && out >= 1;
}

}  // namespace

int BenchConfig::parse(int argc, const char* const* argv, const char* env_scale,
                       std::initializer_list<Flag> extra, BenchConfig& cfg, std::ostream& err) {
    std::size_t scale = cfg.scale;
    if (env_scale != nullptr && !parse_count(env_scale, scale)) {
        err << argv[0] << ": CUZC_BENCH_SCALE needs a count >= 1, got '" << env_scale << "'\n";
        return 2;
    }
    std::vector<Flag> flags{{"--scale", &scale}};
    flags.insert(flags.end(), extra.begin(), extra.end());
    if (const int rc = parse_flags(argc, argv, flags, err); rc != 0) return rc;
    if (scale > UINT_MAX) {
        err << argv[0] << ": scale " << scale << " is out of range\n";
        return 2;
    }
    cfg.scale = static_cast<unsigned>(scale);
    return 0;
}

BenchConfig BenchConfig::from_args(int argc, char** argv, std::initializer_list<Flag> extra) {
    BenchConfig cfg;
    const int rc = parse(argc, argv, std::getenv("CUZC_BENCH_SCALE"), extra, cfg, std::cerr);
    if (rc != 0) std::exit(rc);
    return cfg;
}

int parse_flags(int argc, const char* const* argv, std::span<const Flag> flags,
                std::ostream& err) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string_view name = arg.substr(0, eq);
        const Flag* flag = nullptr;
        for (const Flag& f : flags) {
            if (f.name == name) flag = &f;
        }
        if (flag == nullptr) {
            err << argv[0] << ": unknown argument '" << arg << "'\n";
            return 2;
        }
        const bool has_value = eq != std::string_view::npos;
        const std::string_view value = has_value ? arg.substr(eq + 1) : std::string_view{};
        if (auto* on = std::get_if<bool*>(&flag->target)) {
            if (has_value) {
                err << argv[0] << ": " << name << " takes no value\n";
                return 2;
            }
            **on = true;
        } else if (auto* text = std::get_if<std::string*>(&flag->target)) {
            if (!has_value) {
                err << argv[0] << ": " << name << " needs a value (" << name << "=...)\n";
                return 2;
            }
            **text = std::string(value);
        } else if (auto* list = std::get_if<std::vector<std::size_t>*>(&flag->target)) {
            std::vector<std::size_t> counts;
            bool ok = has_value;
            for (std::string_view rest = value; ok;) {
                const std::size_t comma = rest.find(',');
                std::size_t n = 0;
                ok = parse_count(rest.substr(0, comma), n);
                counts.push_back(n);
                if (comma == std::string_view::npos) break;
                rest.remove_prefix(comma + 1);
            }
            if (!ok) {
                err << argv[0] << ": " << name << " needs counts >= 1 (" << name
                    << "=N,M,...), got '" << arg << "'\n";
                return 2;
            }
            **list = std::move(counts);
        } else {
            std::size_t n = 0;
            if (!has_value || !parse_count(value, n)) {
                err << argv[0] << ": " << name << " needs a count >= 1, got '" << arg << "'\n";
                return 2;
            }
            *std::get<std::size_t*>(flag->target) = n;
        }
    }
    return 0;
}

std::vector<PreparedDataset> prepare_datasets(const BenchConfig& cfg) {
    std::vector<PreparedDataset> out;
    for (const auto& full : data::paper_datasets()) {
        const data::DatasetSpec spec = data::scaled(full, cfg.scale);
        PreparedDataset ds;
        ds.name = full.name;
        ds.full_dims = full.dims;
        ds.run_dims = spec.dims;
        // One representative field: the kernels' cost profile depends on
        // shape, not values, so any field of the dataset models all of them.
        ds.orig = data::generate_field(spec.fields.front(), spec.dims);
        sz::SzConfig scfg;
        scfg.use_rel_bound = true;
        scfg.rel_error_bound = cfg.sz_rel_bound;
        const auto comp = sz::compress(ds.orig.view(), scfg);
        ds.compression_ratio = comp.compression_ratio();
        ds.dec = sz::decompress(comp.bytes);
        out.push_back(std::move(ds));
    }
    return out;
}

vgpu::KernelStats extrapolate(const vgpu::KernelStats& stats, const zc::Dims3& from,
                              const zc::Dims3& to, int pattern, const zc::MetricsConfig& mcfg) {
    vgpu::KernelStats out = stats;
    const double ratio =
        static_cast<double>(to.volume()) / static_cast<double>(from.volume());
    const auto scale_u64 = [ratio](std::uint64_t v) {
        return static_cast<std::uint64_t>(std::llround(static_cast<double>(v) * ratio));
    };
    out.global_bytes_read = scale_u64(stats.global_bytes_read);
    out.global_bytes_written = scale_u64(stats.global_bytes_written);
    out.shared_bytes_read = scale_u64(stats.shared_bytes_read);
    out.shared_bytes_written = scale_u64(stats.shared_bytes_written);
    out.shuffle_ops = scale_u64(stats.shuffle_ops);
    out.thread_iters = scale_u64(stats.thread_iters);
    out.lane_ops = scale_u64(stats.lane_ops);

    const auto blocks_for = [&](const zc::Dims3& d) -> std::uint64_t {
        switch (pattern) {
            case 1: return d.l;                         // one block per z-slice
            case 2: return (d.l + 5) / 6;               // one block per 6-deep z-chunk
            case 3: {                                   // one block per y-window row
                const std::size_t wy = zc::effective_window(
                    d.w, static_cast<std::size_t>(mcfg.ssim_window));
                return (d.w - wy) / static_cast<std::size_t>(mcfg.ssim_step) + 1;
            }
            default: return 0;  // grid-stride kernels: keep measured blocks
        }
    };
    if (pattern >= 1 && pattern <= 3) {
        const std::uint64_t per_launch = blocks_for(to);
        out.blocks = per_launch * std::max<std::uint64_t>(stats.launches, 1);
    }
    return out;
}

namespace {

vgpu::CpuWork cpu_work_for(const zc::Dims3& dims, zc::Pattern p, const zc::MetricsConfig& mcfg) {
    switch (p) {
        case zc::Pattern::kGlobalReduction: return zc::cpu_pattern1_work(dims, mcfg);
        case zc::Pattern::kStencil: return zc::cpu_pattern2_work(dims, mcfg);
        case zc::Pattern::kSlidingWindow: return zc::cpu_pattern3_work(dims, mcfg);
    }
    return {};
}

}  // namespace

PatternTimes pattern_times(const PreparedDataset& ds, zc::Pattern pattern,
                           const zc::MetricsConfig& mcfg) {
    PatternTimes t;
    const zc::MetricsConfig only = [&] {
        zc::MetricsConfig c = mcfg;
        c.pattern1 = pattern == zc::Pattern::kGlobalReduction;
        c.pattern2 = pattern == zc::Pattern::kStencil;
        c.pattern3 = pattern == zc::Pattern::kSlidingWindow;
        return c;
    }();
    const int pat_num = static_cast<int>(pattern);

    const vgpu::GpuCostModel gpu(vgpu::DeviceProps::v100(), vgpu::GpuCostParams{});
    const vgpu::CpuCostModel cpu{vgpu::CpuCostParams{}};

    {
        vgpu::Device dev;
        const auto r = ::cuzc::cuzc::assess(dev, ds.orig.view(), ds.dec.view(), only);
        vgpu::KernelStats s = pattern == zc::Pattern::kGlobalReduction ? r.pattern1
                              : pattern == zc::Pattern::kStencil       ? r.pattern2
                                                                       : r.pattern3;
        s = extrapolate(s, ds.run_dims, ds.full_dims, pat_num, mcfg);
        t.cuzc_s = gpu.kernel_time(s).total_s;
    }
    {
        vgpu::Device dev;
        const auto r = ::cuzc::mozc::assess(dev, ds.orig.view(), ds.dec.view(), only);
        vgpu::KernelStats s = pattern == zc::Pattern::kGlobalReduction ? r.pattern1
                              : pattern == zc::Pattern::kStencil       ? r.pattern2
                                                                       : r.pattern3;
        // moZC's pattern-1 kernels are grid-stride (pattern 0 rule); its
        // pattern-2/3 kernels share cuZC's grid shapes.
        const int mo_pat = pattern == zc::Pattern::kGlobalReduction ? 0 : pat_num;
        s = extrapolate(s, ds.run_dims, ds.full_dims, mo_pat, mcfg);
        t.mozc_s = gpu.kernel_time(s).total_s;
    }
    t.ompzc_s = cpu.time(cpu_work_for(ds.full_dims, pattern, mcfg), cpu.params().cores);
    return t;
}

std::string fmt_time(double seconds) {
    char buf[64];
    if (seconds >= 1.0) {
        std::snprintf(buf, sizeof buf, "%8.3f s ", seconds);
    } else if (seconds >= 1e-3) {
        std::snprintf(buf, sizeof buf, "%8.3f ms", seconds * 1e3);
    } else {
        std::snprintf(buf, sizeof buf, "%8.3f us", seconds * 1e6);
    }
    return buf;
}

std::string fmt_rate(double bytes_per_s) {
    char buf[64];
    if (bytes_per_s >= 1e9) {
        std::snprintf(buf, sizeof buf, "%7.2f GB/s", bytes_per_s / 1e9);
    } else {
        std::snprintf(buf, sizeof buf, "%7.2f MB/s", bytes_per_s / 1e6);
    }
    return buf;
}

}  // namespace cuzc::bench
