#pragma once

// The zero-copy data plane: ref-counted, 64-byte-aligned, immutable field
// storage shared from socket ingest to kernel launch.
//
// A `Slab` is one reference-counted block of host memory — either one
// aligned allocation of exactly the requested size, or a
// `std::vector<float>` adopted wholesale from a `zc::Field`. A `SlabHandle`
// keeps a slab alive; copies are a single atomic increment. A `FieldRef`
// is a cheap immutable view (pointer + count + dims) plus the handle that
// guards its storage, so a field decoded in place inside a network buffer
// can be queued, cached against, and aliased by a DeviceBuffer without a
// single payload copy. `FieldBuffer` is the mutable staging builder: write
// the samples into an aligned slab, then `seal()` into a FieldRef.
//
// Ownership rules (see DESIGN.md §10):
//   - payload bytes are immutable once a FieldRef is published; writers
//     that must mutate (fault injection's upload corruption) copy first;
//   - a FieldRef may outlive whatever produced it — connection teardown,
//     stream aborts, and service drain only drop handles, never storage;
//   - the last handle to drop frees the slab; nothing is retained.
//
// Everything here is header-only on purpose: vgpu::DeviceBuffer adopts
// FieldRefs, and vgpu sits below zc in the link order.

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor.hpp"

namespace cuzc::zc {

/// Snapshot of the process-wide data-plane counters (telemetry surfaces
/// these as the "data_plane" block; `cuzc --profile` prints them).
struct DataPlaneStats {
    std::uint64_t bytes_copied = 0;    ///< payload bytes moved by any copy path
    std::uint64_t slab_allocs = 0;     ///< aligned slab allocations
    /// Always 0: slabs are freed on last release, never recycled. The field
    /// stays so the telemetry JSON, `cuzc --profile` and benchmark readers
    /// keep their schema.
    std::uint64_t slab_reuses = 0;
    std::uint64_t adoptions = 0;       ///< DeviceBuffer uploads satisfied by aliasing
    std::uint64_t pool_high_water_bytes = 0;  ///< peak bytes held by live aligned slabs
};

namespace detail {

struct DataPlaneCounters {
    std::atomic<std::uint64_t> bytes_copied{0};
    std::atomic<std::uint64_t> slab_allocs{0};
    std::atomic<std::uint64_t> adoptions{0};
    std::atomic<std::uint64_t> live_bytes{0};
    std::atomic<std::uint64_t> high_water{0};
    std::atomic<bool> force_copy{false};
};

// No destructor runs at exit, so handles released during static teardown
// may still update the counters.
static_assert(std::is_trivially_destructible_v<DataPlaneCounters>);

inline DataPlaneCounters& data_plane_counters() noexcept {
    static DataPlaneCounters counters;
    return counters;
}

}  // namespace detail

/// Record `bytes` of payload movement. Every copy the data plane performs
/// — decode fallback, forced upload copy, staging into a FieldBuffer,
/// assembler migration — funnels through here so the telemetry ledger and
/// the `bench_e2e --mode=data-plane` gate see the same number.
inline void data_plane_note_copy(std::size_t bytes) noexcept {
    detail::data_plane_counters().bytes_copied.fetch_add(bytes, std::memory_order_relaxed);
}

inline void data_plane_note_adoption() noexcept {
    detail::data_plane_counters().adoptions.fetch_add(1, std::memory_order_relaxed);
}

/// When set, every alias opportunity degrades to the legacy copy path
/// (decode copies + upload memcpy). Benchmarks flip this to measure the
/// before/after copy ledger on identical traffic; results are bit-identical
/// either way.
inline void set_data_plane_force_copy(bool on) noexcept {
    detail::data_plane_counters().force_copy.store(on, std::memory_order_relaxed);
}

[[nodiscard]] inline bool data_plane_force_copy() noexcept {
    return detail::data_plane_counters().force_copy.load(std::memory_order_relaxed);
}

[[nodiscard]] inline DataPlaneStats data_plane_stats() noexcept {
    const auto& c = detail::data_plane_counters();
    DataPlaneStats s;
    s.bytes_copied = c.bytes_copied.load(std::memory_order_relaxed);
    s.slab_allocs = c.slab_allocs.load(std::memory_order_relaxed);
    s.adoptions = c.adoptions.load(std::memory_order_relaxed);
    s.pool_high_water_bytes = c.high_water.load(std::memory_order_relaxed);
    return s;
}

/// Zero the copy/allocation counters (benchmarks bracket runs with this).
/// The high-water mark restarts from the bytes live slabs still hold.
inline void reset_data_plane_stats() noexcept {
    auto& c = detail::data_plane_counters();
    c.bytes_copied.store(0, std::memory_order_relaxed);
    c.slab_allocs.store(0, std::memory_order_relaxed);
    c.adoptions.store(0, std::memory_order_relaxed);
    c.high_water.store(c.live_bytes.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
}

/// Alignment of slab storage: one cache line, which also satisfies
/// every SIMD backend's widest aligned-load requirement.
inline constexpr std::size_t kSlabAlign = 64;

namespace detail {

/// One ref-counted block of host storage: either 64-byte-aligned bytes
/// from one aligned `operator new`, or a vector adopted from a `zc::Field`
/// (already allocated — copying it into fresh aligned storage would defeat
/// the point). The last release frees it.
struct Slab {
    std::atomic<std::size_t> refs{1};
    std::uint8_t* mem = nullptr;
    std::size_t cap = 0;
    std::vector<float> adopted;
    bool aligned = false;
};

/// One aligned allocation of exactly `bytes`, counted in the ledger.
[[nodiscard]] inline Slab* slab_allocate(std::size_t bytes) {
    auto* s = new Slab;
    s->mem = static_cast<std::uint8_t*>(::operator new(bytes, std::align_val_t{kSlabAlign}));
    s->cap = bytes;
    s->aligned = true;
    auto& c = data_plane_counters();
    c.slab_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t now = c.live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::uint64_t peak = c.high_water.load(std::memory_order_relaxed);
    while (now > peak &&
           !c.high_water.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
    return s;
}

inline void slab_retain(Slab* s) noexcept {
    s->refs.fetch_add(1, std::memory_order_relaxed);
}

inline void slab_release(Slab* s) noexcept {
    if (s->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    if (s->aligned) {
        data_plane_counters().live_bytes.fetch_sub(s->cap, std::memory_order_relaxed);
        ::operator delete(s->mem, std::align_val_t{kSlabAlign});
    }
    delete s;
}

}  // namespace detail

/// Shared ownership of one slab; copying is a single atomic increment.
/// The default handle is empty (no storage guarded).
class SlabHandle {
public:
    SlabHandle() = default;
    explicit SlabHandle(detail::Slab* s) noexcept : s_(s) {}  // adopts one ref
    SlabHandle(const SlabHandle& o) noexcept : s_(o.s_) {
        if (s_) detail::slab_retain(s_);
    }
    SlabHandle(SlabHandle&& o) noexcept : s_(std::exchange(o.s_, nullptr)) {}
    SlabHandle& operator=(const SlabHandle& o) noexcept {
        SlabHandle tmp(o);
        std::swap(s_, tmp.s_);
        return *this;
    }
    SlabHandle& operator=(SlabHandle&& o) noexcept {
        if (this != &o) {
            reset();
            s_ = std::exchange(o.s_, nullptr);
        }
        return *this;
    }
    ~SlabHandle() { reset(); }

    void reset() noexcept {
        if (s_) detail::slab_release(std::exchange(s_, nullptr));
    }

    /// Allocate a 64-byte-aligned slab of exactly `bytes` capacity.
    [[nodiscard]] static SlabHandle acquire(std::size_t bytes) {
        return SlabHandle(detail::slab_allocate(bytes));
    }

    [[nodiscard]] explicit operator bool() const noexcept { return s_ != nullptr; }
    [[nodiscard]] std::uint8_t* data() const noexcept { return s_ ? s_->mem : nullptr; }
    [[nodiscard]] std::size_t capacity() const noexcept { return s_ ? s_->cap : 0; }
    /// Outstanding handles on this slab (1 == exclusively ours). An
    /// ingest buffer uses this to detect pinned views before mutating
    /// consumed regions in place.
    [[nodiscard]] std::size_t use_count() const noexcept {
        return s_ ? s_->refs.load(std::memory_order_acquire) : 0;
    }

private:
    detail::Slab* s_ = nullptr;
};

/// Immutable, ref-counted view of a 3-D single-precision field. The cheap
/// currency of the data plane: requests, the cache key path, and device
/// adoption all pass these around by value. Mirrors `Field`'s default
/// state (dims {1,1,1}, no samples) so emptiness checks behave identically.
class FieldRef {
public:
    FieldRef() = default;

    /// Adopt a Field's storage wholesale — zero-copy, the vector moves
    /// into a ref-counted slab. Implicit on purpose: every call site that
    /// used to move a Field into an owning member keeps compiling.
    FieldRef(Field&& f) {  // NOLINT(google-explicit-constructor)
        dims_ = f.dims();
        std::vector<float> v = std::move(f).release();
        count_ = v.size();
        if (count_ == 0) return;
        auto* s = new detail::Slab;
        s->adopted = std::move(v);
        s->mem = reinterpret_cast<std::uint8_t*>(s->adopted.data());
        s->cap = s->adopted.size() * sizeof(float);
        // ptr_ first: reading `s` after slab_ adopts it trips GCC 12's -Wuse-after-free.
        ptr_ = s->adopted.data();
        slab_ = SlabHandle(s);
    }

    /// Copy a Field's samples into an aligned slab (counted).
    FieldRef(const Field& f)  // NOLINT(google-explicit-constructor)
        : FieldRef(copy_of(f.data(), f.dims())) {}

    /// Counted copy of `src` into a fresh aligned slab.
    [[nodiscard]] static FieldRef copy_of(std::span<const float> src, Dims3 dims) {
        FieldRef r;
        r.dims_ = dims;
        r.count_ = src.size();
        if (src.empty()) return r;
        r.slab_ = SlabHandle::acquire(src.size() * sizeof(float));
        auto* dst = reinterpret_cast<float*>(r.slab_.data());
        std::memcpy(dst, src.data(), src.size() * sizeof(float));
        data_plane_note_copy(src.size() * sizeof(float));
        r.ptr_ = dst;
        return r;
    }

    /// Alias `data` (which must live inside the storage `guard` keeps
    /// alive) without copying. The caller vouches for element alignment.
    [[nodiscard]] static FieldRef alias(SlabHandle guard, const float* data,
                                        Dims3 dims) noexcept {
        FieldRef r;
        r.dims_ = dims;
        r.count_ = dims.volume();
        r.ptr_ = data;
        r.slab_ = std::move(guard);
        return r;
    }

    [[nodiscard]] const Dims3& dims() const noexcept { return dims_; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    [[nodiscard]] std::span<const float> data() const noexcept {
        return {ptr_, count_};
    }
    [[nodiscard]] Tensor3f view() const noexcept { return Tensor3f(data(), dims_); }
    [[nodiscard]] const SlabHandle& slab() const noexcept { return slab_; }

private:
    Dims3 dims_{};
    const float* ptr_ = nullptr;
    std::size_t count_ = 0;
    SlabHandle slab_;
};

/// Mutable staging builder: write `dims.volume()` samples into an aligned
/// slab, then `seal()` into an immutable FieldRef. This is how
/// producers that synthesize or load data (data::read_f32, dataset
/// generators) enter the zero-copy plane without an intermediate vector.
class FieldBuffer {
public:
    explicit FieldBuffer(Dims3 dims)
        : dims_(dims), count_(dims.volume()),
          slab_(SlabHandle::acquire(dims.volume() * sizeof(float))) {}

    [[nodiscard]] std::span<float> data() noexcept {
        return {reinterpret_cast<float*>(slab_.data()), count_};
    }
    [[nodiscard]] const Dims3& dims() const noexcept { return dims_; }

    [[nodiscard]] FieldRef seal() && noexcept {
        const auto* p = reinterpret_cast<const float*>(slab_.data());
        return FieldRef::alias(std::move(slab_), p, dims_);
    }

private:
    Dims3 dims_;
    std::size_t count_;
    SlabHandle slab_;
};

}  // namespace cuzc::zc
