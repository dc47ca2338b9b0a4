#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "cuzc/coordinator.hpp"
#include "vgpu/scheduler.hpp"

namespace perfbench {

double now_s() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double Rng::unit() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }

double Rng::exp_gap(double rate) { return -std::log(unit()) / rate; }

std::vector<double> poisson_schedule(std::uint64_t seed, double rate, std::size_t n) {
    Rng rng(seed);
    std::vector<double> due;
    due.reserve(n);
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.exp_gap(rate);
        due.push_back(t);
    }
    return due;
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    double s = 0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

void Digest::add(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
        h_ ^= b;
        h_ *= 0x100000001b3ull;
    }
}

void Digest::add(std::span<const float> values) {
    add(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(values.data()),
                                      values.size_bytes()));
}

void Digest::add_u64(std::uint64_t v) {
    std::uint8_t b[8];
    std::memcpy(b, &v, sizeof b);
    add(std::span<const std::uint8_t>(b, sizeof b));
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
}

std::uint64_t Tracer::next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_++;
}

void Tracer::record(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

std::vector<Tracer::Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, std::vector<double>> Tracer::durations() const {
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : spans()) out[s.name].push_back(s.t1 - s.t0);
    return out;
}

std::map<std::string, std::vector<double>> Tracer::self_times() const {
    const std::vector<Span> all = spans();
    // Children of one span run one after another on the caller's thread,
    // so the part of the parent they cover is the sum of their durations.
    std::map<std::uint64_t, double> covered;
    for (const Span& s : all) {
        if (s.parent != 0) covered[s.parent] += s.t1 - s.t0;
    }
    std::map<std::string, std::vector<double>> out;
    for (const Span& s : all) {
        const auto it = covered.find(s.id);
        const double child = it == covered.end() ? 0.0 : it->second;
        out[s.name].push_back(std::max(0.0, (s.t1 - s.t0) - child));
    }
    return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Span& s : spans()) {
        f << (first ? "\n" : ",\n") << "{\"name\":" << json_str(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << json_num((s.t0 - origin_) * 1e6)
          << ",\"dur\":" << json_num((s.t1 - s.t0) * 1e6) << ",\"args\":{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
        first = false;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(Tracer* t, const char* name, std::uint64_t parent, std::uint64_t req,
                       std::uint32_t tid)
    : t_(t) {
    if (t_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.req = req;
    span_.tid = tid;
    span_.id = t_->next_id();
    span_.t0 = now_s();
}

ScopedSpan::~ScopedSpan() {
    if (t_ == nullptr) return;
    span_.t1 = now_s();
    t_->record(std::move(span_));
}

void WorkloadResult::note(std::string key, double v) { note(std::move(key), json_num(v)); }

void pin_vgpu_threads(std::size_t n, ThreadPinner& pinner, std::size_t first_slot) {
    ::cuzc::vgpu::BlockScheduler::instance().set_num_threads(n);
    // The scheduler spawns its workers lazily on the first launch with more
    // than one block; launch one now so they exist before they are pinned.
    ::cuzc::vgpu::Device dev;
    const ::cuzc::zc::Dims3 dims{16, 16, 16};
    const ::cuzc::zc::Field a(dims), b(dims);
    static_cast<void>(::cuzc::cuzc::assess(dev, a.view(), b.view(), ::cuzc::zc::MetricsConfig{}));
    pinner.pin_new(first_slot);
}

namespace {

std::vector<long> thread_ids() {
    std::vector<long> ids;
    if (DIR* d = opendir("/proc/self/task")) {
        while (const dirent* e = readdir(d)) {
            if (e->d_name[0] != '.') ids.push_back(std::strtol(e->d_name, nullptr, 10));
        }
        closedir(d);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

}  // namespace

ThreadPinner::ThreadPinner() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
        }
    }
    known_ = thread_ids();
}

void ThreadPinner::pin_self(std::size_t slot) {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[slot % cpus_.size()], &set);
    sched_setaffinity(static_cast<pid_t>(syscall(SYS_gettid)), sizeof set, &set);
}

std::size_t ThreadPinner::pin_new(std::size_t first_slot) {
    const std::vector<long> now = thread_ids();
    std::size_t pinned = 0;
    for (const long tid : now) {
        if (std::binary_search(known_.begin(), known_.end(), tid) || cpus_.empty()) continue;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus_[(first_slot + pinned) % cpus_.size()], &set);
        sched_setaffinity(static_cast<pid_t>(tid), sizeof set, &set);
        ++pinned;
    }
    known_ = now;
    return pinned;
}

double span_ms_per_op(const Tracer& t, const std::string& name, double ops) {
    if (ops <= 0) return 0;
    const auto d = t.durations();
    const auto it = d.find(name);
    if (it == d.end()) return 0;
    double s = 0;
    for (const double x : it->second) s += x;
    return s * 1e3 / ops;
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_str(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

}  // namespace perfbench
