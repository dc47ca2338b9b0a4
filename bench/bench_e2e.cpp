// End-to-end benchmark of the serving stack: the in-process service,
// the cuzc-wire socket front-end, the zero-copy data plane and v2
// streaming sessions, one mode each. Every mode builds its own workload,
// runs it, checks its answers against a reference, reconciles the
// telemetry ledgers with their check() methods, and prints one JSON object
// (stdout, and --out=PATH).
//
// Usage: bench_e2e --mode=serve      [--requests=200] [--distinct=32]
//                                    [--faults=SPEC] [--out=PATH]
//        bench_e2e --mode=loopback   [--requests=200] [--distinct=32]
//                                    [--check] [--out=PATH]
//        bench_e2e --mode=data-plane [--check] [--out=PATH]
//        bench_e2e --mode=stream     [--check] [--out=PATH]
//
// A flag the mode does not take, a malformed or zero count, or an unknown
// mode exits 2. A failed gate exits 1.
//
// serve: the mixed trace through `AssessService` (coalescing and the result
//   cache on) against a naive client that calls `cuzc::assess` once per
//   request on one device. Every non-degraded response must equal the naive
//   result exactly. Fault mode (--faults=SPEC, or the CUZC_FAULTS
//   environment variable) injects deterministic device faults: rejections
//   are tolerated (every future must still resolve) and a response that
//   observed an injection is exempt (an injected upload corruption is meant
//   to perturb it); every fault-free response must still match bit for bit.
//
// loopback: the same trace in-process and over a 127.0.0.1 `NetServer`,
//   pipelined up to the whole trace. The two sides alternate for 5 trials
//   (fresh service/server each, so cache state is identical; interleaving
//   lets machine-load drift bias both sides alike) and each keeps its best
//   time. Every loopback report must encode to the in-process bytes.
//   --check fails below 0.8x in-process throughput.
//
// data-plane: a 32-request trace (all distinct, no tight deadlines) over
//   loopback one request at a time, so every frame lands at the ingest
//   assembler's aligned parking offset and decode can alias. The legacy leg
//   forces `zc::set_data_plane_force_copy(true)` (four field copies per
//   request); the zero-copy leg aliases end to end. 3 trials per leg,
//   counters from each leg's first trial (deterministic under serial
//   submission), best wall time. Reports must be bit-identical between the
//   legs; --check fails unless the legacy leg copies >= 2x the bytes the
//   zero-copy leg does.
//
// stream: a 40x40x40 field pair streamed in 8192-element chunks to a server
//   whose max_frame_payload is smaller than one field, so only a v2 session
//   can carry it. Its reduction moments must be bit-identical to the serial
//   batch computation, and its PDF must keep exact ranges, unit mass, and
//   entropy within the chunk-rebinning tolerance. Then 3 trials on a
//   default-limit server time 4 whole-frame requests against 4 streamed
//   sessions (best of each); --check fails below 0.4x whole-frame MB/s.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "vgpu/vgpu.hpp"
#include "zc/zc.hpp"

namespace {

namespace serve = cuzc::serve;
namespace net = cuzc::net;
namespace zc = cuzc::zc;
namespace vgpu = cuzc::vgpu;

constexpr std::size_t kLoopbackTrials = 5;
constexpr std::size_t kDataPlaneRequests = 32;
constexpr std::size_t kDataPlaneTrials = 3;
constexpr zc::Dims3 kStreamDims{40, 40, 40};
constexpr std::size_t kStreamChunk = 8192;
constexpr std::size_t kStreamTrials = 3;
constexpr std::size_t kStreamRepeat = 4;  // sessions / requests per timed trial

struct Options {
    std::string mode;
    serve::TraceGenConfig trace;  ///< --requests, --distinct
    std::string faults;
    bool check = false;
    std::string out;
};

/// A failed gate; main reports it and exits 1.
[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

void require_consistent(const char* ledger, const serve::Violations& violated) {
    if (violated.empty()) return;
    std::string names;
    for (const auto& v : violated) names += " " + v;
    fail(std::string(ledger) + " ledger invariants violated:" + names);
}

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Every request of the trace, fields synthesized up front so no timed
/// run pays for them.
std::vector<serve::AssessRequest> materialize(const serve::TraceGenConfig& gen) {
    std::vector<serve::AssessRequest> reqs;
    for (const auto& e : serve::generate_trace(gen)) reqs.push_back(serve::to_request(e));
    return reqs;
}

struct LoopbackRun {
    std::vector<std::vector<std::uint8_t>> reports;  ///< encoded, in request order
    double seconds = 0;                              ///< first submit to last report
    std::uint64_t bytes_tx = 0, bytes_rx = 0;        ///< client side
    serve::NetTelemetry tele;                        ///< after drain
};

/// Serve `reqs` through a fresh 127.0.0.1 server, keeping at most `window`
/// requests outstanding, and drain it. Fails unless the server accepted
/// every request and its drained ledger is consistent.
LoopbackRun replay_loopback(const net::NetServerConfig& ncfg,
                            const std::vector<serve::AssessRequest>& reqs, std::size_t window) {
    net::NetServer server(ncfg);
    server.start();
    net::NetClientConfig ccfg;
    ccfg.port = server.port();
    net::NetClient client(ccfg);

    LoopbackRun run;
    std::vector<std::uint64_t> ids;
    ids.reserve(reqs.size());
    run.reports.reserve(reqs.size());
    const double t0 = now_seconds();
    for (const auto& req : reqs) {
        while (client.outstanding() >= window) client.pump(0.05);
        ids.push_back(client.submit(req));
    }
    for (const auto id : ids) {
        run.reports.push_back(net::encode_report(client.wait(id).result.report));
    }
    run.seconds = now_seconds() - t0;
    run.bytes_tx = client.bytes_tx();
    run.bytes_rx = client.bytes_rx();
    client.close();
    server.shutdown();

    run.tele = server.telemetry();
    if (run.tele.requests_accepted != reqs.size()) {
        fail("server accepted " + std::to_string(run.tele.requests_accepted) + " of " +
             std::to_string(reqs.size()) + " requests");
    }
    require_consistent("wire", run.tele.check_drained());
    return run;
}

/// A JSON object written field by field, in order; raw() embeds an already
/// rendered object (a telemetry block) verbatim.
class JsonObject {
public:
    explicit JsonObject(int indent = 0) : pad_(static_cast<std::size_t>(indent), ' ') {}

    template <class T>
    JsonObject& field(std::string_view key, const T& value) {
        open(key);
        if constexpr (std::is_same_v<T, bool>) {
            body_ << (value ? "true" : "false");
        } else if constexpr (std::is_arithmetic_v<T>) {
            body_ << value;
        } else {
            body_ << '"' << value << '"';
        }
        return *this;
    }

    JsonObject& raw(std::string_view key, const std::string& json) {
        open(key);
        body_ << json;
        return *this;
    }

    template <class Telemetry>
    JsonObject& telemetry(std::string_view key, const Telemetry& tele) {
        std::ostringstream os;
        tele.write_json(os, static_cast<int>(pad_.size()) + 2);
        return raw(key, os.str());
    }

    [[nodiscard]] std::string str() const { return "{" + body_.str() + "\n" + pad_ + "}"; }

private:
    void open(std::string_view key) {
        body_ << (first_ ? "\n" : ",\n") << pad_ << "  \"" << key << "\": ";
        first_ = false;
    }

    std::string pad_;
    std::ostringstream body_;
    bool first_ = true;
};

/// Print the mode's JSON on stdout and, with --out, to that file.
void emit(const JsonObject& json, const std::string& out_path) {
    const std::string text = json.str() + "\n";
    std::fputs(text.c_str(), stdout);
    if (out_path.empty()) return;
    std::ofstream f(out_path);
    f << text;
    if (!f) fail("cannot write '" + out_path + "'");
}

// --- serve ----------------------------------------------------------------

int run_serve(const Options& opt) {
    const serve::TraceGenConfig& gen = opt.trace;
    serve::ServiceConfig scfg;
    try {
        scfg.faults = opt.faults.empty() ? vgpu::FaultPlan::from_env()
                                         : vgpu::FaultPlan::parse(opt.faults);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 2;
    }
    const bool fault_mode = scfg.faults.enabled();
    const auto reqs = materialize(gen);

    // Naive baseline: one assess per request, no reuse of any kind.
    std::vector<zc::AssessmentReport> naive;
    naive.reserve(reqs.size());
    const double naive_t0 = now_seconds();
    {
        vgpu::Device dev;
        for (const auto& req : reqs) {
            naive.push_back(
                ::cuzc::cuzc::assess(dev, req.orig.view(), req.dec.view(), req.cfg).report);
        }
    }
    const double naive_seconds = now_seconds() - naive_t0;

    serve::AssessService service(scfg);
    std::vector<std::future<serve::AssessResponse>> futures;
    futures.reserve(reqs.size());
    // Each submission hands the service its own counted copy of both
    // fields inside the timed window, as a client with owned fields would.
    const double serve_t0 = now_seconds();
    for (const auto& r : reqs) {
        serve::AssessRequest req = r;
        req.orig = zc::FieldRef::copy_of(r.orig.data(), r.orig.dims());
        req.dec = zc::FieldRef::copy_of(r.dec.data(), r.dec.dims());
        futures.push_back(service.submit(std::move(req)));
    }
    std::vector<serve::AssessResponse> responses;
    responses.reserve(reqs.size());
    for (auto& f : futures) responses.push_back(f.get());
    const double serve_seconds = now_seconds() - serve_t0;

    std::size_t checked = 0, degraded = 0, rejected = 0, faulted = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto& resp = responses[i];
        if (resp.rejected) {
            if (!fault_mode) fail("request " + std::to_string(i) + " rejected: " + resp.error);
            ++rejected;
        } else if (resp.degraded) {
            ++degraded;
        } else if (resp.faults > 0) {
            ++faulted;
        } else {
            const auto& got = resp.result.report;
            if (got.reduction.psnr_db != naive[i].reduction.psnr_db ||
                got.reduction.mse != naive[i].reduction.mse ||
                got.ssim.ssim != naive[i].ssim.ssim) {
                fail("request " + std::to_string(i) + " diverged from direct assess");
            }
            ++checked;
        }
    }
    const serve::ServiceTelemetry tele = service.telemetry();
    require_consistent("service", tele.check_drained());

    const double speedup = serve_seconds > 0 ? naive_seconds / serve_seconds : 0;
    emit(JsonObject()
             .field("schema", "cuzc-serve-throughput-v1")
             .field("requests", reqs.size())
             .field("distinct", gen.distinct)
             .field("devices", scfg.devices)
             .field("tight_deadline_fraction", gen.tight_deadline_fraction)
             .field("checked_against_direct", checked)
             .field("degraded", degraded)
             .field("rejected", rejected)
             .field("faulted", faulted)
             .field("naive_seconds", naive_seconds)
             .field("serve_seconds", serve_seconds)
             .field("speedup", speedup)
             .telemetry("telemetry", tele),
         opt.out);
    std::fprintf(stderr, "bench_e2e serve: naive %.3fs, serve %.3fs, speedup %.2fx\n",
                 naive_seconds, serve_seconds, speedup);
    return 0;
}

// --- loopback -------------------------------------------------------------

int run_loopback(const Options& opt) {
    const serve::TraceGenConfig& gen = opt.trace;
    const auto reqs = materialize(gen);
    const serve::ServiceConfig scfg;

    // In-process ceiling: the whole trace queued at once. The first trial
    // records the reference report bytes.
    std::vector<std::vector<std::uint8_t>> direct;
    double inproc_seconds = 0;
    const auto run_inproc = [&](std::size_t trial) {
        serve::AssessService service(scfg);
        std::vector<std::future<serve::AssessResponse>> futures;
        futures.reserve(reqs.size());
        const double t0 = now_seconds();
        for (const auto& req : reqs) futures.push_back(service.submit(req));
        for (auto& f : futures) {
            std::vector<std::uint8_t> bytes = net::encode_report(f.get().result.report);
            if (trial == 0) direct.push_back(std::move(bytes));
        }
        const double dt = now_seconds() - t0;
        if (trial == 0 || dt < inproc_seconds) inproc_seconds = dt;
    };

    // The in-process side admits the whole trace at once; give the server
    // the same in-flight window so the ratio measures wire cost, not
    // window stalls.
    net::NetServerConfig ncfg;
    ncfg.service = scfg;
    ncfg.max_inflight_per_connection = std::max(ncfg.max_inflight_per_connection, reqs.size());
    LoopbackRun best;
    for (std::size_t trial = 0; trial < kLoopbackTrials; ++trial) {
        run_inproc(trial);
        LoopbackRun run = replay_loopback(ncfg, reqs, reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (run.reports[i] != direct[i]) {
                fail("request " + std::to_string(i) + " diverged over the wire");
            }
        }
        if (trial == 0 || run.seconds < best.seconds) best = std::move(run);
    }

    const double n = static_cast<double>(reqs.size());
    const double inproc_rps = inproc_seconds > 0 ? n / inproc_seconds : 0;
    const double net_rps = best.seconds > 0 ? n / best.seconds : 0;
    const double relative = inproc_rps > 0 ? net_rps / inproc_rps : 0;
    emit(JsonObject()
             .field("schema", "cuzc-net-throughput-v1")
             .field("requests", reqs.size())
             .field("distinct", gen.distinct)
             .field("devices", scfg.devices)
             .field("trials", kLoopbackTrials)
             .field("identical", reqs.size())
             .field("inproc_seconds", inproc_seconds)
             .field("net_seconds", best.seconds)
             .field("inproc_rps", inproc_rps)
             .field("net_rps", net_rps)
             .field("relative_throughput", relative)
             .field("wire_bytes_tx", best.bytes_tx)
             .field("wire_bytes_rx", best.bytes_rx)
             .telemetry("telemetry", best.tele),
         opt.out);
    std::fprintf(stderr,
                 "bench_e2e loopback: in-process %.3fs (%.0f rps), loopback %.3fs (%.0f rps), "
                 "relative %.2fx, %zu/%zu bit-identical\n",
                 inproc_seconds, inproc_rps, best.seconds, net_rps, relative, reqs.size(),
                 reqs.size());
    if (opt.check && relative < 0.8) {
        fail("relative throughput " + std::to_string(relative) + "x < 0.8x");
    }
    return 0;
}

// --- data-plane -----------------------------------------------------------

struct Leg {
    zc::DataPlaneStats stats;                        ///< first trial's counters
    double seconds = 0;                              ///< best across trials
    std::vector<std::vector<std::uint8_t>> reports;  ///< first trial's encoded reports
};

int run_data_plane(const Options& opt) {
    serve::TraceGenConfig gen;
    gen.requests = kDataPlaneRequests;
    gen.distinct = kDataPlaneRequests;  // cache hits only on combo-hash collisions
    gen.tight_deadline_fraction = 0;    // nothing sheds
    const auto reqs = materialize(gen);
    std::uint64_t payload_bytes = 0;  // orig + dec, summed over the trace
    for (const auto& req : reqs) payload_bytes += 2ull * req.orig.size() * sizeof(float);

    const net::NetServerConfig ncfg;
    const auto run_leg = [&](bool force_copy) {
        Leg leg;
        for (std::size_t trial = 0; trial < kDataPlaneTrials; ++trial) {
            zc::set_data_plane_force_copy(force_copy);
            zc::reset_data_plane_stats();
            LoopbackRun run = replay_loopback(ncfg, reqs, 1);
            if (trial == 0) {
                leg.stats = run.tele.data_plane;
                leg.reports = std::move(run.reports);
                leg.seconds = run.seconds;
            } else {
                leg.seconds = std::min(leg.seconds, run.seconds);
            }
        }
        zc::set_data_plane_force_copy(false);
        return leg;
    };
    const Leg legacy = run_leg(true);
    const Leg zero = run_leg(false);

    std::size_t identical = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (zero.reports[i] == legacy.reports[i]) {
            ++identical;
        } else {
            std::fprintf(stderr, "bench_e2e data-plane: request %zu diverged between legs\n", i);
        }
    }
    const double n = static_cast<double>(reqs.size());
    const double legacy_per_req = static_cast<double>(legacy.stats.bytes_copied) / n;
    const double zero_per_req = static_cast<double>(zero.stats.bytes_copied) / n;
    const double reduction =
        static_cast<double>(legacy.stats.bytes_copied) /
        static_cast<double>(std::max<std::uint64_t>(zero.stats.bytes_copied, 1));
    const auto leg_json = [](const Leg& leg, double per_req) {
        return JsonObject(2)
            .field("bytes_copied", leg.stats.bytes_copied)
            .field("bytes_copied_per_request", per_req)
            .field("adoptions", leg.stats.adoptions)
            .field("slab_reuses", leg.stats.slab_reuses)
            .field("seconds", leg.seconds)
            .str();
    };
    emit(JsonObject()
             .field("schema", "cuzc-data-plane-v1")
             .field("requests", reqs.size())
             .field("devices", ncfg.service.devices)
             .field("trials", kDataPlaneTrials)
             .field("identical", identical)
             .field("payload_bytes", payload_bytes)
             .raw("legacy", leg_json(legacy, legacy_per_req))
             .raw("zero_copy", leg_json(zero, zero_per_req))
             .field("copy_reduction", reduction),
         opt.out);
    std::fprintf(stderr,
                 "bench_e2e data-plane: legacy %.0fB/req copied, zero-copy %.0fB/req, "
                 "%.1fx reduction, %llu adoptions, %zu/%zu bit-identical\n",
                 legacy_per_req, zero_per_req, reduction,
                 static_cast<unsigned long long>(zero.stats.adoptions), identical, reqs.size());
    if (identical != reqs.size()) {
        fail(std::to_string(reqs.size() - identical) + " responses diverged between legs");
    }
    if (opt.check && reduction < 2.0) {
        fail("copy reduction " + std::to_string(reduction) + "x < 2.0x");
    }
    return 0;
}

// --- stream ---------------------------------------------------------------

/// Smooth structured field plus a perturbed copy (same recipe as the test
/// helpers: superposed waves, deterministic hash noise).
void make_dataset(const zc::Dims3& dims, zc::Field& orig, zc::Field& dec) {
    orig = zc::Field(dims);
    dec = zc::Field(dims);
    std::size_t i = 0;
    for (std::size_t x = 0; x < dims.h; ++x) {
        for (std::size_t y = 0; y < dims.w; ++y) {
            for (std::size_t z = 0; z < dims.l; ++z, ++i) {
                const double v = std::sin(0.11 * static_cast<double>(x)) +
                                 std::cos(0.07 * static_cast<double>(y)) *
                                     std::sin(0.05 * static_cast<double>(z));
                orig.data()[i] = static_cast<float>(v);
                std::uint64_t r = (i + 1) * 0x9E3779B97F4A7C15ull;
                r ^= r >> 29;
                r *= 0xBF58476D1CE4E5B9ull;
                r ^= r >> 32;
                const double e =
                    (static_cast<double>(r >> 11) * 0x1.0p-53 * 2.0 - 1.0) * 0.01;
                dec.data()[i] = static_cast<float>(v + e);
            }
        }
    }
}

/// Fails unless a streamed reduction matches the batch one: moments bit
/// for bit, the PDF within the chunk-rebinning tolerance.
void check_streamed(const zc::ReductionReport& got, const zc::ReductionReport& ref) {
    const bool moments_identical =
        got.min_err == ref.min_err && got.max_err == ref.max_err &&
        got.avg_err == ref.avg_err && got.avg_abs_err == ref.avg_abs_err &&
        got.max_abs_err == ref.max_abs_err && got.min_pwr_err == ref.min_pwr_err &&
        got.max_pwr_err == ref.max_pwr_err && got.avg_pwr_err == ref.avg_pwr_err &&
        got.mse == ref.mse && got.rmse == ref.rmse && got.nrmse == ref.nrmse &&
        got.snr_db == ref.snr_db && got.psnr_db == ref.psnr_db &&
        got.pearson_r == ref.pearson_r && got.min_val == ref.min_val &&
        got.max_val == ref.max_val && got.mean_val == ref.mean_val &&
        got.std_val == ref.std_val;
    if (!moments_identical) fail("streamed moments diverge from batch");
    double mass = 0, l1 = 0;
    for (std::size_t b = 0; b < got.err_pdf.size(); ++b) {
        mass += got.err_pdf[b];
        l1 += std::fabs(got.err_pdf[b] - (b < ref.err_pdf.size() ? ref.err_pdf[b] : 0.0));
    }
    const double entropy_tol = 0.05 * std::max(std::fabs(ref.entropy), 1.0);
    if (got.err_pdf.size() != ref.err_pdf.size() || got.err_pdf_min != ref.err_pdf_min ||
        got.err_pdf_max != ref.err_pdf_max || std::fabs(mass - 1.0) > 1e-9 ||
        std::fabs(got.entropy - ref.entropy) > entropy_tol || l1 > 0.5) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "streamed PDF outside rebin tolerance (mass %.12f, entropy %.6f vs %.6f, "
                      "L1 %.6f)",
                      mass, got.entropy, ref.entropy, l1);
        fail(buf);
    }
}

int run_stream(const Options& opt) {
    const zc::Dims3 dims = kStreamDims;
    zc::Field orig, dec;
    make_dataset(dims, orig, dec);
    zc::MetricsConfig mcfg;
    mcfg.pattern2 = false;
    mcfg.pattern3 = false;
    const zc::ReductionReport ref = zc::reduction_metrics(orig.view(), dec.view(), mcfg);
    const std::size_t field_bytes = dims.volume() * sizeof(float);

    // Correctness: a field pair the whole-frame path cannot carry.
    {
        net::NetServerConfig ncfg;
        ncfg.max_frame_payload = std::max<std::size_t>(64 * 1024, field_bytes / 2);
        net::NetServer server(ncfg);
        server.start();
        net::NetClientConfig ccfg;
        ccfg.port = server.port();
        net::NetClient client(ccfg);
        const auto resp = client.stream_assess(dims, orig.data(), dec.data(), mcfg, kStreamChunk);
        if (resp.rejected) fail("streamed session rejected: " + resp.error);
        check_streamed(resp.result.report.reduction, ref);
        client.close();
        server.shutdown();
        const auto tele = server.telemetry();
        if (tele.streams_opened != 1 || tele.streams_aborted != 0) {
            fail("expected one clean stream, saw " + std::to_string(tele.streams_opened) +
                 " opened, " + std::to_string(tele.streams_aborted) + " aborted");
        }
        require_consistent("wire", tele.check_drained());
    }

    // Throughput: whole-frame versus streamed on a default-limit server.
    serve::AssessRequest whole;
    whole.orig = orig;
    whole.dec = dec;
    whole.cfg = mcfg;
    double frame_seconds = 0, stream_seconds = 0;
    std::uint64_t stream_chunks = 0, stream_bytes = 0;
    for (std::size_t trial = 0; trial < kStreamTrials; ++trial) {
        net::NetServer server(net::NetServerConfig{});
        server.start();
        net::NetClientConfig ccfg;
        ccfg.port = server.port();
        net::NetClient client(ccfg);

        const double t0 = now_seconds();
        for (std::size_t r = 0; r < kStreamRepeat; ++r) {
            const auto resp = client.assess(whole);
            if (resp.rejected) fail("whole-frame request rejected: " + resp.error);
        }
        const double t1 = now_seconds();
        for (std::size_t r = 0; r < kStreamRepeat; ++r) {
            const auto resp =
                client.stream_assess(dims, orig.data(), dec.data(), mcfg, kStreamChunk);
            if (resp.rejected) fail("streamed session rejected: " + resp.error);
        }
        const double t2 = now_seconds();
        client.close();
        server.shutdown();
        const auto tele = server.telemetry();
        if (trial == 0 || t1 - t0 < frame_seconds) frame_seconds = t1 - t0;
        if (trial == 0 || t2 - t1 < stream_seconds) {
            stream_seconds = t2 - t1;
            stream_chunks = tele.stream_chunks;
            stream_bytes = tele.stream_bytes;
        }
    }

    const double data_mb = static_cast<double>(2 * field_bytes * kStreamRepeat) / (1024.0 * 1024.0);
    const double frame_mbps = frame_seconds > 0 ? data_mb / frame_seconds : 0;
    const double stream_mbps = stream_seconds > 0 ? data_mb / stream_seconds : 0;
    const double relative = frame_mbps > 0 ? stream_mbps / frame_mbps : 0;
    emit(JsonObject()
             .field("schema", "cuzc-net-streaming-v1")
             .field("dims", std::to_string(dims.h) + "x" + std::to_string(dims.w) + "x" +
                                std::to_string(dims.l))
             .field("chunk_elements", kStreamChunk)
             .field("trials", kStreamTrials)
             .field("repeat", kStreamRepeat)
             .field("moments_bit_identical", true)
             .field("whole_frame_seconds", frame_seconds)
             .field("streamed_seconds", stream_seconds)
             .field("whole_frame_mbps", frame_mbps)
             .field("streamed_mbps", stream_mbps)
             .field("relative_throughput", relative)
             .field("stream_chunks", stream_chunks)
             .field("stream_bytes", stream_bytes),
         opt.out);
    std::fprintf(stderr,
                 "bench_e2e stream: whole-frame %.3fs (%.1f MB/s), streamed %.3fs (%.1f MB/s), "
                 "relative %.2fx, moments bit-identical\n",
                 frame_seconds, frame_mbps, stream_seconds, stream_mbps, relative);
    if (opt.check && relative < 0.4) {
        fail("streamed throughput " + std::to_string(relative) + "x < 0.4x");
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    namespace bench = cuzc::bench;
    // The mode decides which flags are valid, so find it first.
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.starts_with("--mode=")) opt.mode = arg.substr(7);
    }
    const bench::Flag mode{"--mode", &opt.mode};
    const bench::Flag requests{"--requests", &opt.trace.requests};
    const bench::Flag distinct{"--distinct", &opt.trace.distinct};
    const bench::Flag faults{"--faults", &opt.faults};
    const bench::Flag check{"--check", &opt.check};
    const bench::Flag out{"--out", &opt.out};

    int (*run)(const Options&) = nullptr;
    int rc = 2;
    if (opt.mode == "serve") {
        run = run_serve;
        rc = bench::parse_flags(argc, argv, {mode, requests, distinct, faults, out}, std::cerr);
    } else if (opt.mode == "loopback") {
        run = run_loopback;
        rc = bench::parse_flags(argc, argv, {mode, requests, distinct, check, out}, std::cerr);
    } else if (opt.mode == "data-plane") {
        run = run_data_plane;
        rc = bench::parse_flags(argc, argv, {mode, check, out}, std::cerr);
    } else if (opt.mode == "stream") {
        run = run_stream;
        rc = bench::parse_flags(argc, argv, {mode, check, out}, std::cerr);
    } else {
        std::fprintf(stderr, "bench_e2e: --mode=serve|loopback|data-plane|stream is required\n");
    }
    if (rc != 0) return rc;
    try {
        return run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e --mode=%s: FAIL %s\n", opt.mode.c_str(), e.what());
        return 1;
    }
}
