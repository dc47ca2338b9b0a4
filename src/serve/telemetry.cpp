#include "telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <ostream>
#include <string>
#include <utility>

namespace cuzc::serve {

void LatencyHistogram::record(double seconds) {
    ++count;
    sum_s += seconds;
    max_s = std::max(max_s, seconds);
    const double us = seconds * 1e6;
    std::size_t b = 0;
    if (us >= 1.0) {
        b = static_cast<std::size_t>(std::floor(std::log2(us))) + 1;
        b = std::min(b, kBuckets - 1);
    }
    ++buckets[b];
}

double LatencyHistogram::bucket_le_us(std::size_t i) noexcept {
    return std::ldexp(1.0, static_cast<int>(i));  // 2^i us
}

namespace {

/// Append the name of every rule that does not hold.
void note_violations(Violations& v, std::initializer_list<std::pair<bool, const char*>> rules) {
    for (const auto& [holds, name] : rules) {
        if (!holds) v.emplace_back(name);
    }
}

void write_data_plane_json(std::ostream& os, const zc::DataPlaneStats& dp,
                           const std::string& in1, const std::string& in2) {
    os << in1 << "\"data_plane\": {\n";
    os << in2 << "\"bytes_copied\": " << dp.bytes_copied << ",\n";
    os << in2 << "\"slab_allocs\": " << dp.slab_allocs << ",\n";
    os << in2 << "\"slab_reuses\": " << dp.slab_reuses << ",\n";
    os << in2 << "\"adoptions\": " << dp.adoptions << ",\n";
    os << in2 << "\"pool_high_water_bytes\": " << dp.pool_high_water_bytes << "\n";
    os << in1 << "}";
}

}  // namespace

Violations ServiceTelemetry::check() const {
    Violations v;
    note_violations(v, {{queued == served + rejected + queue_depth + inflight, "queued"},
                        {served == cache_hits + cache_misses, "served"},
                        {shed <= served, "shed"},
                        {latency.count == served + rejected, "latency.count"}});
    return v;
}

Violations ServiceTelemetry::check_drained() const {
    Violations v = check();
    note_violations(v, {{queue_depth == 0, "queue_depth"}, {inflight == 0, "inflight"}});
    return v;
}

Violations NetTelemetry::check() const {
    Violations v;
    note_violations(
        v, {{requests_accepted == requests_completed + requests_failed + requests_in_flight,
             "requests_accepted"},
            {connections_accepted == connections_active + connections_closed,
             "connections_accepted"},
            {streams_opened >= streams_aborted, "streams_opened"}});
    return v;
}

Violations NetTelemetry::check_drained() const {
    Violations v = check();
    note_violations(v, {{requests_in_flight == 0, "requests_in_flight"}});
    return v;
}

void ServiceTelemetry::write_json(std::ostream& os, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in1 = pad + "  ";
    const std::string in2 = pad + "    ";
    os << "{\n";
    os << in1 << "\"schema\": \"cuzc-serve-telemetry-v2\",\n";
    os << in1 << "\"queued\": " << queued << ",\n";
    os << in1 << "\"served\": " << served << ",\n";
    os << in1 << "\"cache_hits\": " << cache_hits << ",\n";
    os << in1 << "\"cache_misses\": " << cache_misses << ",\n";
    os << in1 << "\"shed\": " << shed << ",\n";
    os << in1 << "\"rejected\": " << rejected << ",\n";
    os << in1 << "\"batches\": " << batches << ",\n";
    os << in1 << "\"coalesced\": " << coalesced << ",\n";
    os << in1 << "\"uploads\": " << uploads << ",\n";
    os << in1 << "\"buffer_allocs\": " << buffer_allocs << ",\n";
    os << in1 << "\"max_queue_depth\": " << max_queue_depth << ",\n";
    os << in1 << "\"cache_evictions\": " << cache_evictions << ",\n";
    os << in1 << "\"cache_size\": " << cache_size << ",\n";
    os << in1 << "\"shards\": " << shards << ",\n";
    os << in1 << "\"exchange_bytes\": " << exchange_bytes << ",\n";
    os << in1 << "\"shard_retries\": " << shard_retries << ",\n";
    os << in1 << "\"faults_injected\": " << faults_injected << ",\n";
    os << in1 << "\"retries\": " << retries << ",\n";
    os << in1 << "\"timeouts\": " << timeouts << ",\n";
    os << in1 << "\"breaker_opens\": " << breaker_opens << ",\n";
    os << in1 << "\"breaker_open\": " << breaker_open << ",\n";
    os << in1 << "\"queue_depth\": " << queue_depth << ",\n";
    os << in1 << "\"inflight\": " << inflight << ",\n";
    os << in1 << "\"modeled_backlog_s\": " << modeled_backlog_s << ",\n";
    os << in1 << "\"spans_s\": {\"queue\": " << queue_s << ", \"upload\": " << upload_s
       << ", \"kernel\": " << kernel_s << ", \"report\": " << report_s << "},\n";
    os << in1 << "\"latency\": {\n";
    os << in2 << "\"count\": " << latency.count << ",\n";
    os << in2 << "\"mean_us\": " << latency.mean_s() * 1e6 << ",\n";
    os << in2 << "\"max_us\": " << latency.max_s * 1e6 << ",\n";
    os << in2 << "\"buckets_le_us\": [";
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        os << (i ? ", " : "") << LatencyHistogram::bucket_le_us(i);
    }
    os << "],\n";
    os << in2 << "\"bucket_counts\": [";
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        os << (i ? ", " : "") << latency.buckets[i];
    }
    os << "]\n";
    os << in1 << "},\n";
    write_data_plane_json(os, data_plane, in1, in2);
    os << "\n" << pad << "}";
}

void NetTelemetry::write_json(std::ostream& os, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in1 = pad + "  ";
    const std::string in2 = pad + "    ";
    os << "{\n";
    os << in1 << "\"schema\": \"cuzc-wire-v2\",\n";
    os << in1 << "\"connections_accepted\": " << connections_accepted << ",\n";
    os << in1 << "\"connections_closed\": " << connections_closed << ",\n";
    os << in1 << "\"connections_active\": " << connections_active << ",\n";
    os << in1 << "\"requests_accepted\": " << requests_accepted << ",\n";
    os << in1 << "\"requests_completed\": " << requests_completed << ",\n";
    os << in1 << "\"requests_failed\": " << requests_failed << ",\n";
    os << in1 << "\"requests_in_flight\": " << requests_in_flight << ",\n";
    os << in1 << "\"frames_rx\": " << frames_rx << ",\n";
    os << in1 << "\"frames_tx\": " << frames_tx << ",\n";
    os << in1 << "\"frames_rejected\": " << frames_rejected << ",\n";
    os << in1 << "\"bytes_rx\": " << bytes_rx << ",\n";
    os << in1 << "\"bytes_tx\": " << bytes_tx << ",\n";
    os << in1 << "\"streams_opened\": " << streams_opened << ",\n";
    os << in1 << "\"stream_chunks\": " << stream_chunks << ",\n";
    os << in1 << "\"stream_bytes\": " << stream_bytes << ",\n";
    os << in1 << "\"streams_aborted\": " << streams_aborted << ",\n";
    write_data_plane_json(os, data_plane, in1, in2);
    os << "\n" << pad << "}";
}

}  // namespace cuzc::serve
