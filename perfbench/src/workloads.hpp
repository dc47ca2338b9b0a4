#pragma once

// The three workloads, their correctness oracles, and the one table of
// metric names and units that the output, the self-test and
// BENCHMARK.json must agree on.

#include <cstdint>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "serve/request.hpp"
#include "serve/telemetry.hpp"
#include "zc/report.hpp"

namespace perfbench {

struct MetricSpec {
    std::string_view name;
    std::string_view unit;
};

/// Printed with --trace 0, in this order. The p99 latencies and the
/// streaming metrics are not here: on a shared 4-core VM they spread
/// 0.2-0.8 of their median from run to run, too wide for any regression
/// bound, so the traced run reports them, ungated, with the per-layer
/// metrics.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_MB", "MB"}, {"assess_MBps", "MB/s"},
    {"burst_rps", "req/s"}, {"req_p50_ms", "ms"},  {"probe_p50_ms", "ms"},
};

/// Printed with --trace 1, in this order.
inline constexpr MetricSpec kPerLayer[] = {
    {"req_p99_ms", "ms"},
    {"probe_p99_ms", "ms"},
    {"cuzc.p1.ms", "ms"},
    {"cuzc.p2.ms", "ms"},
    {"cuzc.p3.ms", "ms"},
    {"vgpu.upload.ms", "ms"},
    {"cuzc.assess.self_ms", "ms"},
    {"cuzc.p1.global_MB", "MB"},
    {"cuzc.p2.global_MB", "MB"},
    {"cuzc.p3.global_MB", "MB"},
    {"cuzc.p2.shared_MB", "MB"},
    {"cuzc.p3.shared_MB", "MB"},
    {"cuzc.launches", "count"},
    {"cuzc.modeled_v100_ms", "ms"},
    {"zc.cpu_ref_ms", "ms"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.upload_ms.p50", "ms"},
    {"serve.kernel_ms.p50", "ms"},
    {"serve.report_ms.p50", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.coalesce_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.rejected", "count"},
    {"serve.inproc_rps", "req/s"},
    {"net.wire_us_per_req", "us"},
    {"net.encode_req_us", "us"},
    {"net.decode_req_us", "us"},
    {"net.encode_resp_us", "us"},
    {"net.decode_resp_us", "us"},
    {"net.checksum_us_per_MB", "us/MB"},
    {"net.client_submit_us.p50", "us"},
    {"net.bytes_per_req", "B"},
    {"net.frames_rejected", "count"},
    {"net.stream_feed_us_per_chunk", "us"},
    {"zc.stream_feed_ms_per_chunk", "ms"},
    {"stream.MBps", "MB/s"},
    {"stream.session_p50_ms", "ms"},
    {"stream.probe_p50_ms", "ms"},
    {"stream.probe_p99_ms", "ms"},
    {"stream.bytes_copied_per_session", "B"},
    {"zc.bytes_copied_per_req", "B"},
    {"zc.slab_allocs", "count"},
    {"zc.slab_reuses", "count"},
    {"zc.adoptions", "count"},
    {"zc.pool_high_water_MB", "MB"},
    {"gen_late_ms.p99", "ms"},
    {"trace.residual_ms", "ms"},
    {"trace.residual_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Fill every per-layer metric a workload does not exercise with 0, so a
/// traced run always prints the whole table.
void zero_fill_layers(MetricMap& layer);

WorkloadResult run_kernels_sdr(const RunConfig& cfg);
WorkloadResult run_loopback_mixed(const RunConfig& cfg);

/// The streaming phase of loopback-mixed's traced run: v2 sessions of a
/// NYX-shaped field plus cache-hit probes on a second connection. Fills the
/// stream.* and the stream-side net/zc layer metrics; its oracles (streamed
/// moments bit-identical to batch, probe reports, ledgers) report into `res`.
void measure_streams(const RunConfig& cfg, ThreadPinner& pinner, Tracer& tracer,
                     WorkloadResult& res);

// --- Oracles ------------------------------------------------------------
// Each returns an empty string when the check passes, else why it failed.

/// kernels-sdr: `got` agrees with the serial zc::assess reference within
/// the 1e-9 relative tolerance bench_correctness uses (every metric of
/// zc::compare_reports a tie) and is bit-identical to the warm-up report.
[[nodiscard]] std::string check_kernel_report(const ::cuzc::zc::AssessmentReport& got,
                                              const ::cuzc::zc::AssessmentReport& reference,
                                              const std::vector<std::uint8_t>& warmup_bytes);

/// loopback-mixed: the response's report encodes to exactly the bytes of
/// the in-process AssessService replay of the same request.
[[nodiscard]] std::string check_same_report(const ::cuzc::zc::AssessmentReport& got,
                                            const std::vector<std::uint8_t>& expected_bytes);

/// Streaming phase: every streamed reduction moment equals the batch
/// zc::reduction_metrics value bit for bit.
[[nodiscard]] std::string check_stream_moments(const ::cuzc::zc::ReductionReport& got,
                                               const ::cuzc::zc::ReductionReport& batch);

/// Ledgers after a drained run: accepted == completed + failed + in_flight,
/// no rejected frames, and queued == served + rejected.
[[nodiscard]] std::string check_ledgers(const ::cuzc::serve::NetTelemetry& net,
                                        const ::cuzc::serve::ServiceTelemetry& svc);

// --- Open loop over one NetClient --------------------------------------

struct OpenLoopResult {
    std::vector<double> latency_ms;  ///< per request, from its due time; +inf = failed
    std::vector<double> late_ms;     ///< send time minus due time
    std::vector<::cuzc::serve::AssessResponse> responses;
    std::uint64_t failed = 0;
};

/// Send `requests[order[i]]` at `due[i]` seconds after the start, whatever
/// the state of earlier requests, and time each from its due time. Spans
/// around NetClient::submit go to `tracer` when it is non-null.
OpenLoopResult open_loop(::cuzc::net::NetClient& client,
                         const std::vector<::cuzc::serve::AssessRequest>& requests,
                         const std::vector<std::size_t>& order, const std::vector<double>& due,
                         Tracer* tracer, std::uint32_t tid);

}  // namespace perfbench
