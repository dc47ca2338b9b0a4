#pragma once

// Shared pieces of the repo benchmark: clock, seeded schedules, summary
// statistics, the span recorder behind the traced run, pinned execution
// config, and the result record every workload fills.

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] double now_s();

/// Seeded splitmix64 stream: the only source of randomness in the
/// benchmark, so one seed always yields the same inputs and schedules.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    [[nodiscard]] std::uint64_t next();
    /// Uniform in (0, 1].
    [[nodiscard]] double unit();
    /// Exponential inter-arrival gap of a Poisson process at `rate` per s.
    [[nodiscard]] double exp_gap(double rate);

private:
    std::uint64_t state_;
};

/// Send times (seconds from the phase start) of an open-loop Poisson
/// schedule: `n` arrivals at mean `rate` per second.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed, double rate, std::size_t n);

/// Nearest-rank percentile (q in [0, 1]); +inf entries mark failed
/// operations and sort last, so they count as missing any limit.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// Window aggregation of the end-to-end metrics. Each metric is computed
/// per window (a pass, a round or a time slice) and a run reports the
/// quartile of its windows on the fast side: the upper quartile of a rate,
/// the lower quartile of a time. On a shared VM, interference from other
/// tenants only ever slows a window down, and a whole run's median swung by
/// ±20% with it; the fast-side quartile follows the program instead.
[[nodiscard]] inline double rate_over_windows(std::vector<double> v) {
    return percentile(std::move(v), 0.75);
}
[[nodiscard]] inline double time_over_windows(std::vector<double> v) {
    return percentile(std::move(v), 0.25);
}
[[nodiscard]] double mean(const std::vector<double>& v);

/// Process peak resident set size, MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// FNV-1a-64 over bytes: the printed input digest.
class Digest {
public:
    void add(std::span<const std::uint8_t> bytes);
    void add(std::span<const float> values);
    void add_u64(std::uint64_t v);
    [[nodiscard]] std::string hex() const;

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// In-memory span recorder for the traced run. Spans carry a name, start
/// and end (steady clock), the enclosing span and a request id, and are
/// written out as Chrome trace-event JSON at the end. A null recorder makes
/// every ScopedSpan a no-op, which is how the untraced run measures.
class Tracer {
public:
    struct Span {
        std::string name;
        double t0 = 0;
        double t1 = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  ///< 0 = root
        std::uint64_t req = 0;
        std::uint32_t tid = 0;
    };

    [[nodiscard]] std::uint64_t next_id();
    void record(Span s);
    [[nodiscard]] std::vector<Span> spans() const;

    /// Self time of every span (duration minus the part its children
    /// cover), grouped by span name, seconds.
    [[nodiscard]] std::map<std::string, std::vector<double>> self_times() const;
    /// Durations grouped by span name, seconds.
    [[nodiscard]] std::map<std::string, std::vector<double>> durations() const;

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    bool write_chrome_json(const std::string& path) const;

private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::uint64_t next_ = 1;
    double origin_ = now_s();
};

/// RAII span around one call into a layer. With `t == nullptr` it records
/// nothing; `id` is still 0 so children of an untraced span are roots.
class ScopedSpan {
public:
    ScopedSpan(Tracer* t, const char* name, std::uint64_t parent = 0, std::uint64_t req = 0,
               std::uint32_t tid = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

private:
    Tracer* t_;
    Tracer::Span span_;
};

/// One workload invocation's settings, all from the command line.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Self-test size: every phase runs, on tiny inputs, for a short time.
    bool tiny = false;
    /// Where the traced run writes its Chrome trace (empty: not written).
    std::string trace_path;
};

using MetricMap = std::map<std::string, double>;

/// What a workload hands back to the driver code in main.cpp.
struct WorkloadResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Oracle failures; any entry makes the run incorrect (nonzero exit).
    std::vector<std::string> oracle_failures;
    MetricMap e2e;    ///< end-to-end metrics (untraced measurement)
    MetricMap layer;  ///< per-layer metrics (traced run only)
    /// Extra key -> JSON value pairs for the environment/diagnostics line.
    std::vector<std::pair<std::string, std::string>> notes;

    void fail(std::string why) { oracle_failures.push_back(std::move(why)); }
    void note(std::string key, std::string json_value) {
        notes.emplace_back(std::move(key), std::move(json_value));
    }
    void note(std::string key, double v);
};

/// Places every thread of the process on a fixed CPU, so a run never
/// depends on where the OS happened to put the client, the server's I/O
/// thread, the service workers or the block scheduler. Slots index the CPUs
/// the process may use (modulo their count). Threads are found in
/// /proc/self/task: `pin_new(slot)` pins every thread that appeared since
/// the last call, which attributes threads to the step that created them.
class ThreadPinner {
public:
    ThreadPinner();
    /// Pin the calling thread.
    void pin_self(std::size_t slot);
    /// Pin the threads created since the last call to consecutive slots
    /// from `first_slot`, oldest first; returns how many.
    std::size_t pin_new(std::size_t first_slot);

private:
    std::vector<int> cpus_;
    std::vector<long> known_;
};

/// Pin the vgpu block scheduler's worker count (overrides any
/// CUZC_VGPU_THREADS in the environment), make sure its workers exist, and
/// pin any new ones to slots from `first_slot`.
void pin_vgpu_threads(std::size_t n, ThreadPinner& pinner, std::size_t first_slot);

/// Derived layer metrics from a traced run's spans: mean per-op duration
/// (ms) of spans named `name`, given `ops` operations.
[[nodiscard]] double span_ms_per_op(const Tracer& t, const std::string& name, double ops);

/// Allowance for open-loop generator lateness: a phase whose p99 send
/// lateness exceeds it is flagged in the output.
inline constexpr double kGenLateAllowanceMs = 1.0;

/// Format a double for JSON with full precision.
[[nodiscard]] std::string json_num(double v);
[[nodiscard]] std::string json_str(const std::string& s);

}  // namespace perfbench
