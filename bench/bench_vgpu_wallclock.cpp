// Times the virtual-GPU interpreter itself: wall-clock seconds and blocks
// interpreted per second for the three cuZC pattern kernels, per dataset,
// at field scales 8 and 4. Unlike the other bench targets (which report
// *modeled* device time), this one measures how fast the host-side
// emulator chews through kernels — the number that decides whether future
// PRs can afford to run scale=2/scale=1 fields for real.
//
// Emits JSON on stdout (and to a file via --out=PATH) including every
// profiler counter, so two builds can be diffed both for speed and for
// bit-exact count preservation.
//
// Usage: bench_vgpu_wallclock [--scales=8,4] [--repeats=3] [--out=PATH]
// Thread count of the block scheduler comes from CUZC_VGPU_THREADS.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using cuzc::bench::BenchConfig;
using cuzc::bench::PreparedDataset;
namespace vgpu = cuzc::vgpu;
namespace zc = cuzc::zc;

struct Sample {
    std::string dataset;
    unsigned scale = 0;
    std::string kernel;
    double seconds = 0;
    vgpu::KernelStats stats;
};

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

void append_stats_json(std::ostringstream& os, const vgpu::KernelStats& s) {
    os << "{\"blocks\":" << s.blocks << ",\"threads_per_block\":" << s.threads_per_block
       << ",\"regs_per_thread\":" << s.regs_per_thread
       << ",\"smem_per_block\":" << s.smem_per_block
       << ",\"global_bytes_read\":" << s.global_bytes_read
       << ",\"global_bytes_written\":" << s.global_bytes_written
       << ",\"shared_bytes_read\":" << s.shared_bytes_read
       << ",\"shared_bytes_written\":" << s.shared_bytes_written
       << ",\"shuffle_ops\":" << s.shuffle_ops << ",\"thread_iters\":" << s.thread_iters
       << ",\"lane_ops\":" << s.lane_ops << "}";
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<std::size_t> scales{8, 4};
    std::size_t repeats = 3;
    std::string out_path;
    if (const int rc = cuzc::bench::parse_flags(
            argc, argv, {{"--scales", &scales}, {"--repeats", &repeats}, {"--out", &out_path}},
            std::cerr);
        rc != 0) {
        return rc;
    }

    const zc::MetricsConfig mcfg;
    std::vector<Sample> samples;

    for (const std::size_t scale : scales) {
        BenchConfig bcfg;
        bcfg.scale = static_cast<unsigned>(scale);
        const auto datasets = cuzc::bench::prepare_datasets(bcfg);
        for (const auto& ds : datasets) {
            for (const zc::Pattern pattern :
                 {zc::Pattern::kGlobalReduction, zc::Pattern::kStencil,
                  zc::Pattern::kSlidingWindow}) {
                zc::MetricsConfig only = mcfg;
                only.pattern1 = pattern == zc::Pattern::kGlobalReduction;
                only.pattern2 = pattern == zc::Pattern::kStencil;
                only.pattern3 = pattern == zc::Pattern::kSlidingWindow;

                Sample s;
                s.dataset = ds.name;
                s.scale = bcfg.scale;
                s.seconds = 1e300;
                for (std::size_t r = 0; r < repeats; ++r) {
                    vgpu::Device dev;
                    const double t0 = now_seconds();
                    const auto res =
                        ::cuzc::cuzc::assess(dev, ds.orig.view(), ds.dec.view(), only);
                    const double dt = now_seconds() - t0;
                    const vgpu::KernelStats& st =
                        pattern == zc::Pattern::kGlobalReduction ? res.pattern1
                        : pattern == zc::Pattern::kStencil       ? res.pattern2
                                                                 : res.pattern3;
                    if (dt < s.seconds) s.seconds = dt;
                    s.kernel = st.name;
                    s.stats = st;
                }
                samples.push_back(std::move(s));
            }
        }
    }

    const char* env_threads = std::getenv("CUZC_VGPU_THREADS");
    std::ostringstream os;
    os << "{\n  \"schema\": \"cuzc-vgpu-wallclock-v1\",\n";
    os << "  \"threads\": \"" << (env_threads ? env_threads : "default") << "\",\n";
    os << "  \"results\": [\n";
    double total_blocks = 0, total_seconds = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample& s = samples[i];
        const auto blocks = static_cast<double>(s.stats.blocks);
        total_blocks += blocks;
        total_seconds += s.seconds;
        os << "    {\"dataset\":\"" << s.dataset << "\",\"scale\":" << s.scale
           << ",\"kernel\":\"" << s.kernel << "\",\"seconds\":" << s.seconds
           << ",\"blocks_per_sec\":" << (s.seconds > 0 ? blocks / s.seconds : 0)
           << ",\"stats\":";
        append_stats_json(os, s.stats);
        os << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"total_seconds\": " << total_seconds << ",\n";
    os << "  \"total_blocks_per_sec\": "
       << (total_seconds > 0 ? total_blocks / total_seconds : 0) << "\n}\n";

    std::fputs(os.str().c_str(), stdout);
    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << os.str();
        if (!f) {
            std::fprintf(stderr, "bench_vgpu_wallclock: cannot write '%s'\n", out_path.c_str());
            return 1;
        }
    }
    return 0;
}
