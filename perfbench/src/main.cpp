// perfbench: the repo benchmark. One invocation runs one workload with one
// seed and prints, as its last stdout line, a JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). See perfbench/README.md.
//
// Usage: perfbench --workload <kernels-sdr|loopback-mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <path>] [--commit <id>]
//        perfbench --self-test [--commit <id>]
//        perfbench --list-metrics

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "cuzc/cuzc.hpp"
#include "data/datasets.hpp"
#include "io/strict_parse.hpp"
#include "net/wire.hpp"
#include "vgpu/simd.hpp"
#include "workloads.hpp"
#include "zc/zc.hpp"

namespace {

using namespace perfbench;
namespace zc = ::cuzc::zc;
namespace simd = ::cuzc::vgpu::simd;

/// Printed in place of a latency percentile that landed on a failed
/// operation (which counts as missing every limit); JSON has no infinity.
constexpr double kMissedLimit = 1e9;

struct Workload {
    std::string_view name;
    std::function<WorkloadResult(const RunConfig&)> run;
    std::string_view transport;
};

const Workload kWorkloads[] = {
    {"kernels-sdr", run_kernels_sdr, "in-process calls; no network"},
    {"loopback-mixed", run_loopback_mixed,
     "TCP over loopback (127.0.0.1), not a real link"},
};

const Workload* find_workload(std::string_view name) {
    for (const Workload& w : kWorkloads) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

std::string read_line(const std::string& path) {
    std::ifstream f(path);
    std::string s;
    std::getline(f, s);
    return s;
}

/// "level:size" of every cache cpu0 reports, e.g. {"L2": "2048K", ...}.
std::string cache_sizes_json() {
    std::string out = "{";
    for (int i = 0; i < 8; ++i) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        const std::string level = read_line(dir + "/level");
        if (level.empty()) break;
        const std::string type = read_line(dir + "/type");
        if (type == "Instruction") continue;
        if (out.size() > 1) out += ",";
        out += json_str("L" + level) + ":" + json_str(read_line(dir + "/size"));
    }
    return out + "}";
}

std::string env_json(const Workload& w, const RunConfig& cfg, const std::string& commit,
                     const WorkloadResult& r) {
    std::ostringstream os;
    const char* env_threads = std::getenv("CUZC_VGPU_THREADS");
    const char* env_simd = std::getenv("CUZC_SIMD");
    os << "{\"env\":{\"workload\":" << json_str(std::string(w.name)) << ",\"seed\":" << cfg.seed
       << ",\"seconds\":" << json_num(cfg.seconds) << ",\"trace\":" << (cfg.trace ? 1 : 0)
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"caches\":" << cache_sizes_json() << ",\"simd\":" << json_str(simd::banner())
       << ",\"CUZC_VGPU_THREADS\":" << json_str(env_threads ? env_threads : "unset")
       << ",\"CUZC_VGPU_THREADS_effect\":\"ignored (pinned per workload)\""
       << ",\"CUZC_SIMD\":" << json_str(env_simd ? env_simd : "unset")
       << ",\"CUZC_SIMD_effect\":\"ignored (best available backend forced)\""
       << ",\"commit\":" << json_str(commit) << ",\"transport\":" << json_str(std::string(w.transport));
    for (const auto& [k, v] : r.notes) os << "," << json_str(k) << ":" << v;
    os << "}}";
    return os.str();
}

/// The contract line: correct, attempted, failed and the metrics of the
/// requested kind, every one with its unit.
std::string result_json(const WorkloadResult& r, bool trace, std::string& missing) {
    std::ostringstream os;
    os << "{\"correct\": " << (r.oracle_failures.empty() ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    const MetricMap& values = trace ? r.layer : r.e2e;
    bool first = true;
    const auto emit = [&](const MetricSpec& m) {
        const auto it = values.find(std::string(m.name));
        if (it == values.end()) {
            missing += std::string(m.name) + " ";
            return;
        }
        const double v = std::isfinite(it->second) ? it->second : kMissedLimit;
        os << (first ? "" : ", ") << json_str(std::string(m.name)) << ": {\"value\": " << json_num(v)
           << ", \"unit\": " << json_str(std::string(m.unit)) << "}";
        first = false;
    };
    if (trace) {
        for (const MetricSpec& m : kPerLayer) emit(m);
    } else {
        for (const MetricSpec& m : kEndToEnd) emit(m);
    }
    os << "}}";
    return os.str();
}

/// Run, attach peak RSS and the zero-filled layer table.
WorkloadResult run_workload(const Workload& w, const RunConfig& cfg) {
    WorkloadResult r = w.run(cfg);
    r.e2e["peak_rss_MB"] = peak_rss_mb();
    if (cfg.trace) zero_fill_layers(r.layer);
    return r;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <kernels-sdr|loopback-mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
                 "[--commit <id>]\n       perfbench --self-test | --list-metrics\n",
                 why);
    return 2;
}

// --- Self-test ------------------------------------------------------------

int self_test(const std::string& commit) {
    int failures = 0;
    const auto expect = [&](bool ok, const std::string& what) {
        std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
        if (!ok) ++failures;
    };

    // Every workload at a tiny size, untraced and traced: oracles pass and
    // every metric is emitted with its unit.
    for (const Workload& w : kWorkloads) {
        for (const bool trace : {false, true}) {
            RunConfig cfg;
            cfg.workload = std::string(w.name);
            cfg.seed = 7;
            cfg.seconds = 1;
            cfg.trace = trace;
            cfg.tiny = true;
            const WorkloadResult r = run_workload(w, cfg);
            const std::string tag = std::string(w.name) + (trace ? " (traced)" : "");
            expect(r.oracle_failures.empty(),
                   tag + ": oracles pass" +
                       (r.oracle_failures.empty() ? "" : " [" + r.oracle_failures[0] + "]"));
            expect(r.attempted > 0 && r.failed == 0, tag + ": attempted > 0, failed == 0");
            std::string missing;
            const std::string line = result_json(r, trace, missing);
            expect(missing.empty(), tag + ": every metric present" +
                                        (missing.empty() ? "" : " [missing " + missing + "]"));
            for (const MetricSpec& m : trace ? std::span<const MetricSpec>(kPerLayer)
                                             : std::span<const MetricSpec>(kEndToEnd)) {
                const std::string key = json_str(std::string(m.name)) + ": {\"value\": ";
                const std::size_t at = line.find(key);
                const std::string unit = "\"unit\": " + json_str(std::string(m.unit)) + "}";
                const bool with_unit = at != std::string::npos && line.find(unit, at) != std::string::npos;
                if (!with_unit) expect(false, tag + ": " + std::string(m.name) + " with unit " + std::string(m.unit));
                if (!trace) {
                    const double v = r.e2e.at(std::string(m.name));
                    if (!(std::isfinite(v) && v > 0)) {
                        expect(false, tag + ": " + std::string(m.name) + " finite and > 0");
                    }
                }
            }
            std::printf("  --   %s: %s\n", tag.c_str(), env_json(w, cfg, commit, r).c_str());
        }
    }

    // Each oracle rejects a deliberately corrupted result.
    {
        const zc::Dims3 dims{16, 16, 16};
        zc::Field orig = ::cuzc::data::generate_field(::cuzc::data::hurricane().fields.front(), dims);
        zc::Field dec = orig;
        for (std::size_t i = 0; i < dec.size(); ++i) {
            dec.data()[i] += 1e-3f * static_cast<float>(static_cast<int>(i % 7) - 3);
        }
        const zc::MetricsConfig mcfg;
        const zc::AssessmentReport ref = zc::assess(orig.view(), dec.view(), mcfg);
        ::cuzc::vgpu::Device dev;
        const zc::AssessmentReport got =
            ::cuzc::cuzc::assess(dev, zc::FieldRef(orig), zc::FieldRef(dec), mcfg).report;
        const std::vector<std::uint8_t> bytes = ::cuzc::net::encode_report(got);
        expect(check_kernel_report(got, ref, bytes).empty(), "kernel oracle accepts a true report");
        zc::AssessmentReport bad = got;
        bad.reduction.psnr_db *= 1.001;
        expect(!check_kernel_report(bad, ref, ::cuzc::net::encode_report(bad)).empty(),
               "kernel oracle rejects a report that disagrees with zc::assess");
        bad = got;
        bad.reduction.err_pdf.at(0) = std::nextafter(bad.reduction.err_pdf[0], 1.0);
        expect(!check_kernel_report(bad, ref, bytes).empty(),
               "kernel oracle rejects a report one ulp off its warm-up bits");

        expect(check_same_report(got, bytes).empty(), "wire oracle accepts identical bytes");
        bad = got;
        bad.ssim.ssim = std::nextafter(bad.ssim.ssim, 2.0);
        expect(!check_same_report(bad, bytes).empty(), "wire oracle rejects a one-ulp SSIM change");

        zc::MetricsConfig p1only;
        p1only.pattern2 = false;
        p1only.pattern3 = false;
        const zc::ReductionReport batch = zc::reduction_metrics(orig.view(), dec.view(), p1only);
        expect(check_stream_moments(batch, batch).empty(), "stream oracle accepts batch moments");
        zc::ReductionReport rb = batch;
        rb.mse = std::nextafter(rb.mse, 1.0);
        expect(!check_stream_moments(rb, batch).empty(), "stream oracle rejects a one-ulp MSE change");

        ::cuzc::serve::NetTelemetry nt;
        ::cuzc::serve::ServiceTelemetry st;
        nt.requests_accepted = nt.requests_completed = 5;
        st.queued = st.served = 5;
        expect(check_ledgers(nt, st).empty(), "ledger oracle accepts balanced ledgers");
        auto nt2 = nt;
        nt2.requests_completed = 4;
        expect(!check_ledgers(nt2, st).empty(), "ledger oracle rejects a lost wire request");
        nt2 = nt;
        nt2.frames_rejected = 1;
        expect(!check_ledgers(nt2, st).empty(), "ledger oracle rejects a rejected frame");
        auto st2 = st;
        st2.served = 4;
        expect(!check_ledgers(nt, st2).empty(), "ledger oracle rejects a lost service request");
    }

    std::printf("self-test: %s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    RunConfig cfg;
    std::string commit = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    bool self = false, list = false;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (arg == "--self-test") {
            self = true;
            continue;
        }
        if (arg == "--list-metrics") {
            list = true;
            continue;
        }
        if (arg.substr(0, 2) != "--") return usage("unexpected argument");
        std::string_view key = arg.substr(2), value;
        if (const auto eq = key.find('='); eq != std::string_view::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage("flag without a value");
        }
        if (key == "workload") {
            cfg.workload = std::string(value);
            have_workload = true;
        } else if (key == "seed") {
            if (!::cuzc::io::parse_num(value, cfg.seed)) return usage("--seed must be an unsigned integer");
            have_seed = true;
        } else if (key == "seconds") {
            if (!::cuzc::io::parse_num(value, cfg.seconds) || cfg.seconds <= 0 || cfg.seconds > 120) {
                return usage("--seconds must be a number in (0, 120]");
            }
            have_seconds = true;
        } else if (key == "trace") {
            int t = 0;
            if (!::cuzc::io::parse_num(value, t) || (t != 0 && t != 1)) return usage("--trace must be 0 or 1");
            cfg.trace = t == 1;
            have_trace = true;
        } else if (key == "trace-out") {
            cfg.trace_path = std::string(value);
        } else if (key == "commit") {
            commit = std::string(value);
        } else {
            return usage("unknown flag");
        }
    }

    if (list) {
        std::printf("{\"end_to_end\": [");
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kEndToEnd[i].name.data(),
                        kEndToEnd[i].unit.data());
        }
        std::printf("], \"per_layer\": [");
        for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
            std::printf("%s[\"%s\", \"%s\"]", i ? ", " : "", kPerLayer[i].name.data(),
                        kPerLayer[i].unit.data());
        }
        std::printf("], \"workloads\": [");
        for (std::size_t i = 0; i < std::size(kWorkloads); ++i) {
            std::printf("%s\"%s\"", i ? ", " : "", kWorkloads[i].name.data());
        }
        std::printf("]}\n");
        return 0;
    }

    // Pinned execution config: no fault injection, one SIMD backend.
    if (const char* faults = std::getenv("CUZC_FAULTS"); faults != nullptr && *faults != '\0') {
        std::fprintf(stderr, "perfbench: CUZC_FAULTS is set; refusing to measure with fault "
                             "injection armed\n");
        return 2;
    }
    const auto backends = simd::available_backends();
    if (backends.empty() || !simd::force_backend(backends.front())) {
        std::fprintf(stderr, "perfbench: no usable SIMD backend\n");
        return 2;
    }

    if (self) return self_test(commit);
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        return usage("--workload, --seed, --seconds and --trace are required");
    }
    const Workload* w = find_workload(cfg.workload);
    if (w == nullptr) return usage("unknown workload");

    WorkloadResult r;
    try {
        r = run_workload(*w, cfg);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
        return 1;
    }
    std::string missing;
    const std::string line = result_json(r, cfg.trace, missing);
    if (!missing.empty()) {
        std::fprintf(stderr, "perfbench: metrics not produced: %s\n", missing.c_str());
        return 1;
    }
    for (const std::string& why : r.oracle_failures) {
        std::fprintf(stderr, "perfbench: ORACLE FAILURE: %s\n", why.c_str());
    }
    std::printf("%s\n%s\n", env_json(*w, cfg, commit, r).c_str(), line.c_str());
    std::fflush(stdout);
    return r.oracle_failures.empty() ? 0 : 1;
}
