// The streaming phase of loopback-mixed's traced run: closed-loop
// cuzc-wire-v2 sessions of one large NYX-shaped field over loopback in
// fixed-size chunks, while a second connection sends small cache-hitting
// probe requests open-loop at a low fixed rate. net is used per byte here
// (ingest, checksum, slab pool), and zc::StreamingAssessor runs on the
// server's I/O thread; the kernels idle.
//
// It is traced and ungated. As a gated workload of its own ("stream-bulk"),
// its throughput and latencies spread 0.18-0.28 of their medians over ten
// seeds on a shared 4-core VM, too close to or beyond the largest
// regression bound (0.25).

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <thread>

#include "data/datasets.hpp"
#include "data/noise.hpp"
#include "net/net.hpp"
#include "serve/serve.hpp"
#include "sz/sz.hpp"
#include "workloads.hpp"
#include "zc/zc.hpp"

namespace perfbench {

namespace {

namespace data = ::cuzc::data;
namespace net = ::cuzc::net;
namespace serve = ::cuzc::serve;
namespace sz = ::cuzc::sz;
namespace zc = ::cuzc::zc;

/// Threads: stream client (the calling thread, slot 0) + probe client
/// thread + server I/O + one service worker (the block scheduler runs
/// inline) = 4.
constexpr std::size_t kDevices = 1;
constexpr unsigned kScale = 4;  // NYX 512^3 / 4 = 128^3: 8.4 MB per field
constexpr unsigned kTinyScale = 16;
constexpr std::size_t kChunkElems = 64 * 1024;  // 256 KiB per field per chunk
constexpr double kProbeRate = 100.0;            // probes per second, open loop
constexpr double kPhaseSeconds = 6.0;

zc::MetricsConfig stream_config() {
    zc::MetricsConfig c;  // only the pattern-1 family is computed by streams
    c.pattern2 = false;
    c.pattern3 = false;
    return c;
}

struct System {
    std::unique_ptr<net::NetServer> server;
    std::unique_ptr<net::NetClient> stream;
    std::unique_ptr<net::NetClient> probe;

    ~System() {
        if (probe) probe->close();
        if (stream) stream->close();
        if (server) server->shutdown();
    }
};

/// Stream client on CPU slot 0, server I/O thread on 1, probe client on 2,
/// service worker on 3.
std::unique_ptr<System> start_system(ThreadPinner& pinner) {
    auto sys = std::make_unique<System>();
    net::NetServerConfig ncfg;
    ncfg.service.devices = kDevices;
    sys->server = std::make_unique<net::NetServer>(ncfg);
    pinner.pin_new(3);
    sys->server->start();
    pinner.pin_new(1);
    net::NetClientConfig ccfg;
    ccfg.port = sys->server->port();
    sys->stream = std::make_unique<net::NetClient>(ccfg);
    sys->probe = std::make_unique<net::NetClient>(ccfg);
    return sys;
}

struct Inputs {
    zc::Field orig, dec;
    zc::ReductionReport batch;
    std::vector<serve::AssessRequest> probe;  ///< one request, sent repeatedly
    std::vector<std::uint8_t> probe_expected;
    std::vector<std::size_t> probe_order;
    std::vector<double> probe_due;
};

struct Session {
    double seconds = 0;
    serve::AssessResponse resp;
};

/// One streaming session through the client's public calls, with a span
/// around each.
Session stream_session(net::NetClient& c, const Inputs& in, Tracer* tr, std::uint64_t req) {
    const double t0 = now_s();
    ScopedSpan whole(tr, "stream.session", 0, req, 0);
    const zc::Dims3 dims = in.orig.dims();
    const std::size_t n = dims.volume();
    const std::uint64_t chunks = (n + kChunkElems - 1) / kChunkElems;
    std::uint64_t id = 0;
    {
        ScopedSpan s(tr, "net.stream_begin", whole.id(), req, 0);
        id = c.stream_begin(dims, stream_config(), chunks);
    }
    const std::span<const float> o = in.orig.data(), d = in.dec.data();
    for (std::size_t off = 0; off < n; off += kChunkElems) {
        const std::size_t len = std::min(kChunkElems, n - off);
        ScopedSpan s(tr, "net.stream_feed", whole.id(), req, 0);
        c.stream_feed(id, o.subspan(off, len), d.subspan(off, len));
    }
    {
        ScopedSpan s(tr, "net.stream_finish", whole.id(), req, 0);
        c.stream_finish(id);
    }
    Session out;
    {
        ScopedSpan s(tr, "net.client.wait", whole.id(), req, 0);
        out.resp = c.wait(id);
    }
    out.seconds = now_s() - t0;
    return out;
}

struct PhaseResult {
    std::vector<double> session_s;
    double busy_s = 0;
    OpenLoopResult probe;
};

/// Stream sessions back to back until the probe schedule has run out.
PhaseResult run_phase(System& sys, const Inputs& in, ThreadPinner& pinner, Tracer* tr,
                      WorkloadResult& res) {
    PhaseResult out;
    std::promise<OpenLoopResult> probe_done;
    std::future<OpenLoopResult> probe_future = probe_done.get_future();
    std::thread prober([&] {
        pinner.pin_self(2);
        try {
            probe_done.set_value(open_loop(*sys.probe, in.probe, in.probe_order, in.probe_due, tr, 1));
        } catch (...) {
            probe_done.set_exception(std::current_exception());
        }
    });
    std::uint64_t req = 0;
    try {
        while (out.session_s.empty() ||
               probe_future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            Session s = stream_session(*sys.stream, in, tr, ++req);
            ++res.attempted;
            out.session_s.push_back(s.seconds);
            out.busy_s += s.seconds;
            if (s.resp.rejected || s.resp.timed_out) {
                ++res.failed;
                continue;
            }
            if (auto why = check_stream_moments(s.resp.result.report.reduction, in.batch);
                !why.empty()) {
                res.fail("session " + std::to_string(req) + ": " + why);
            }
        }
    } catch (...) {
        prober.join();
        throw;
    }
    prober.join();
    out.probe = probe_future.get();
    res.attempted += in.probe_order.size();
    res.failed += out.probe.failed;
    for (std::size_t i = 0; i < out.probe.responses.size(); ++i) {
        const serve::AssessResponse& r = out.probe.responses[i];
        if (r.rejected || r.timed_out) continue;
        if (auto why = check_same_report(r.result.report, in.probe_expected); !why.empty()) {
            res.fail("probe " + std::to_string(i) + ": " + why);
        }
    }
    sys.probe->close();
    sys.stream->close();
    sys.server->shutdown();
    if (auto why = check_ledgers(sys.server->telemetry(), sys.server->service_telemetry());
        !why.empty()) {
        res.fail(why);
    }
    return out;
}

}  // namespace

void measure_streams(const RunConfig& cfg, ThreadPinner& pinner, Tracer& tracer,
                     WorkloadResult& res) {
    const unsigned scale = cfg.tiny ? kTinyScale : kScale;
    const double seconds = cfg.tiny ? 1.0 : kPhaseSeconds;
    MetricMap& L = res.layer;

    // --- Inputs (not timed).
    Digest digest;
    digest.add_u64(cfg.seed);
    Inputs in;
    {
        const data::DatasetSpec spec = data::scaled(data::nyx(), scale);
        data::FieldSpec f = spec.fields.front();
        f.seed = data::mix64(f.seed ^ data::mix64(cfg.seed));
        in.orig = data::generate_field(f, spec.dims);
        sz::SzConfig scfg;
        scfg.use_rel_bound = true;
        scfg.rel_error_bound = 1e-3;
        in.dec = sz::decompress(sz::compress(in.orig.view(), scfg).bytes);
        digest.add(in.orig.data());
        digest.add(in.dec.data());
        in.batch = zc::reduction_metrics(in.orig.view(), in.dec.view(), stream_config());
    }
    {
        serve::TraceEntry e;
        e.dims = zc::Dims3{12, 12, 12};
        e.seed = cfg.seed;
        in.probe.push_back(serve::to_request(e));
        digest.add(in.probe[0].orig.data());
        serve::AssessService service;
        in.probe_expected = net::encode_report(service.submit(in.probe[0]).get().result.report);
    }
    const auto probes = static_cast<std::size_t>(kProbeRate * seconds);
    in.probe_order.assign(probes, 0);
    in.probe_due = poisson_schedule(data::mix64(cfg.seed ^ 0x5eed), kProbeRate, probes);
    for (const double d : in.probe_due) digest.add_u64(static_cast<std::uint64_t>(d * 1e9));
    const std::size_t field_bytes = in.orig.size() * sizeof(float);
    res.note("stream_input_digest", json_str(digest.hex()));
    res.note("stream_field_bytes", static_cast<double>(field_bytes));
    res.note("stream_threads", json_str("stream client 1 + probe client 1 + server I/O 1 + "
                                        "service worker 1 (devices=1, vgpu threads=1), each pinned"));
    res.note("stream_field_vs_cache", json_str("one field exceeds the per-core L2 and fits the "
                                               "shared L3 (sizes under caches); no bandwidth claim"));

    // StreamingAssessor::feed in-process on the same chunks.
    {
        zc::StreamingAssessor sa(stream_config());
        const std::span<const float> o = in.orig.data(), d = in.dec.data();
        const std::size_t n = o.size();
        std::size_t chunks = 0;
        for (std::size_t off = 0; off < n; off += kChunkElems, ++chunks) {
            const std::size_t len = std::min(kChunkElems, n - off);
            ScopedSpan s(&tracer, "zc.stream.feed", 0, chunks, 0);
            sa.feed(o.subspan(off, len), d.subspan(off, len));
        }
        if (auto why = check_stream_moments(sa.finalize(), in.batch); !why.empty()) {
            res.fail("in-process StreamingAssessor: " + why);
        }
        L["zc.stream_feed_ms_per_chunk"] =
            span_ms_per_op(tracer, "zc.stream.feed", static_cast<double>(chunks));
    }

    // Sessions + probes on a fresh system whose cache holds the probe.
    std::unique_ptr<System> sys = start_system(pinner);
    static_cast<void>(sys->probe->assess(in.probe[0]));
    const zc::DataPlaneStats before = zc::data_plane_stats();
    const PhaseResult t = run_phase(*sys, in, pinner, &tracer, res);
    sys.reset();
    const zc::DataPlaneStats after = zc::data_plane_stats();

    const double sessions = static_cast<double>(t.session_s.size());
    std::vector<double> session_ms;
    for (const double s : t.session_s) session_ms.push_back(s * 1e3);
    L["stream.MBps"] = 2.0 * static_cast<double>(field_bytes) / 1e6 * sessions / t.busy_s;
    L["stream.session_p50_ms"] = percentile(session_ms, 0.50);
    L["stream.probe_p50_ms"] = percentile(t.probe.latency_ms, 0.50);
    L["stream.probe_p99_ms"] = percentile(t.probe.latency_ms, 0.99);
    L["stream.bytes_copied_per_session"] =
        static_cast<double>(after.bytes_copied - before.bytes_copied) / sessions;
    const auto dur = tracer.durations();
    const auto feeds = dur.find("net.stream_feed");
    if (feeds != dur.end() && !feeds->second.empty()) {
        L["net.stream_feed_us_per_chunk"] =
            mean(feeds->second) * 1e6;
    }
    res.note("stream_sessions", sessions);
    res.note("stream_gen_late_ms.p99", percentile(t.probe.late_ms, 0.99));
}

}  // namespace perfbench
