// Correctness oracles and the open-loop sender shared by the network
// workloads.

#include <cmath>
#include <limits>
#include <unordered_map>

#include "net/wire.hpp"
#include "workloads.hpp"
#include "zc/compare.hpp"

namespace perfbench {

namespace serve = ::cuzc::serve;
namespace net = ::cuzc::net;
namespace zc = ::cuzc::zc;

void zero_fill_layers(MetricMap& layer) {
    for (const MetricSpec& m : kPerLayer) layer.try_emplace(std::string(m.name), 0.0);
}

std::string check_kernel_report(const zc::AssessmentReport& got,
                                const zc::AssessmentReport& reference,
                                const std::vector<std::uint8_t>& warmup_bytes) {
    const zc::ComparisonReport cmp = zc::compare_reports(got, reference, 1e-9);
    for (const zc::MetricComparison& m : cmp.metrics) {
        if (m.winner != 0) {
            return "report disagrees with serial zc::assess on " + m.metric + " (" +
                   json_num(m.a) + " vs " + json_num(m.b) + ")";
        }
    }
    if (net::encode_report(got) != warmup_bytes) {
        return "report is not bit-identical to the warm-up pass";
    }
    return {};
}

std::string check_same_report(const zc::AssessmentReport& got,
                              const std::vector<std::uint8_t>& expected_bytes) {
    if (net::encode_report(got) != expected_bytes) {
        return "wire report differs from the in-process AssessService replay";
    }
    return {};
}

std::string check_stream_moments(const zc::ReductionReport& got, const zc::ReductionReport& ref) {
    const struct {
        const char* name;
        double a, b;
    } moments[] = {
        {"min_err", got.min_err, ref.min_err},
        {"max_err", got.max_err, ref.max_err},
        {"avg_err", got.avg_err, ref.avg_err},
        {"avg_abs_err", got.avg_abs_err, ref.avg_abs_err},
        {"max_abs_err", got.max_abs_err, ref.max_abs_err},
        {"min_pwr_err", got.min_pwr_err, ref.min_pwr_err},
        {"max_pwr_err", got.max_pwr_err, ref.max_pwr_err},
        {"avg_pwr_err", got.avg_pwr_err, ref.avg_pwr_err},
        {"mse", got.mse, ref.mse},
        {"rmse", got.rmse, ref.rmse},
        {"nrmse", got.nrmse, ref.nrmse},
        {"snr_db", got.snr_db, ref.snr_db},
        {"psnr_db", got.psnr_db, ref.psnr_db},
        {"pearson_r", got.pearson_r, ref.pearson_r},
        {"min_val", got.min_val, ref.min_val},
        {"max_val", got.max_val, ref.max_val},
        {"mean_val", got.mean_val, ref.mean_val},
        {"std_val", got.std_val, ref.std_val},
    };
    for (const auto& m : moments) {
        // Bit equality; NaN == NaN counts as equal here.
        if (!(m.a == m.b) && !(std::isnan(m.a) && std::isnan(m.b))) {
            return std::string("streamed ") + m.name + " differs from batch (" + json_num(m.a) +
                   " vs " + json_num(m.b) + ")";
        }
    }
    return {};
}

std::string check_ledgers(const serve::NetTelemetry& n, const serve::ServiceTelemetry& s) {
    if (n.requests_accepted != n.requests_completed + n.requests_failed + n.requests_in_flight) {
        return "wire ledger: accepted != completed + failed + in_flight";
    }
    if (n.frames_rejected != 0) return "wire ledger: frames_rejected != 0";
    if (s.queued != s.served + s.rejected + s.queue_depth + s.inflight) {
        return "service ledger: queued != served + rejected (+ queue + inflight)";
    }
    return {};
}

OpenLoopResult open_loop(net::NetClient& client, const std::vector<serve::AssessRequest>& requests,
                         const std::vector<std::size_t>& order, const std::vector<double>& due,
                         Tracer* tracer, std::uint32_t tid) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kDrainLimitS = 60.0;
    constexpr double kSpinS = 3e-3;
    const std::size_t n = order.size();
    OpenLoopResult r;
    r.latency_ms.assign(n, kInf);
    r.late_ms.assign(n, 0.0);
    r.responses.resize(n);
    std::unordered_map<std::uint64_t, std::size_t> index;
    index.reserve(n);

    std::size_t sent = 0, settled = 0;
    const double t0 = now_s();
    const auto collect = [&] {
        while (auto got = client.take_response()) {
            const double t = now_s();
            const auto it = index.find(got->first);
            if (it == index.end()) continue;
            const std::size_t i = it->second;
            index.erase(it);
            ++settled;
            serve::AssessResponse& resp = got->second;
            if (resp.rejected || resp.timed_out) {
                ++r.failed;
            } else {
                r.latency_ms[i] = (t - (t0 + due[i])) * 1e3;
            }
            r.responses[i] = std::move(resp);
        }
    };
    double last_progress = t0;
    while (settled < n) {
        collect();
        const double now = now_s();
        if (sent < n && now >= t0 + due[sent]) {
            r.late_ms[sent] = (now - (t0 + due[sent])) * 1e3;
            std::uint64_t id = 0;
            {
                ScopedSpan span(tracer, "net.client.submit", 0, sent, tid);
                id = client.submit(requests[order[sent]]);
            }
            index.emplace(id, sent);
            ++sent;
            continue;
        }
        // Block in poll while the next send is comfortably far away; spin
        // (zero-timeout pumps) for the last few milliseconds so sends go out
        // on time despite poll's millisecond granularity and wake-up delay.
        double wait = 0.05;
        if (sent < n) wait = t0 + due[sent] - now - kSpinS;
        const bool got = client.pump(wait > 1e-3 ? wait : 0.0);
        if (got) {
            collect();
            last_progress = now_s();
        } else if (sent == n && now_s() - last_progress > kDrainLimitS) {
            break;  // remaining requests stay +inf and count as failed
        }
    }
    r.failed += n - settled;
    return r;
}

}  // namespace perfbench
