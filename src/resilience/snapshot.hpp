// Asynchronous, incremental in-memory rollback snapshots.
//
// The PR 4 rollback point serialized every rank's full state through the
// checkpoint iostream path ON the driver thread, between steps — ~100%
// of a memcpy's cost in formatting overhead, paid synchronously every
// checkpoint interval. This rework replaces it with raw double-buffered
// field copies taken ASYNCHRONOUSLY, overlapped with the next step's
// compute:
//
//   * The copy source is each rank's state, launched right after the
//     step that produced it. Nothing writes a rank state again until
//     the next step's halo fill (or an injected field fault), and every
//     such writer first passes barrier(r). That gap — the health scan,
//     the step hooks, the driver's bookkeeping — is where the copies
//     run, on a dedicated snapshot thread.
//   * Each rank's copy is guarded by a claim word. The snapshot thread
//     claims ranks and copies them in the background; a writer that
//     reaches barrier(r) first STEALS rank r's copy (claims and copies
//     inline) or, if the snapshot thread is mid-copy, waits for that
//     rank only. No rank ever waits on another rank's copy.
//   * Copies are double-buffered: the staging buffers fill while the
//     previously committed snapshot stays restorable, and the driver
//     promotes staging -> committed once the step it copied commits. A
//     round whose step fails its health scan is discarded instead. A
//     rollback that arrives mid-round completes the round first (the
//     sources are still intact — any rank that wrote its state passed
//     the barrier, so its copy already happened).
//   * Incremental: the time-invariant reference fields (rho_ref, p_ref,
//     rhotheta_ref, cs2) are copied ONCE per configuration and only
//     restored thereafter — per-field dirty tracking degenerates to
//     "dynamic fields every round, static fields never again". On top
//     of that, configure(..., incremental=true) turns on j-slab dirty
//     tracking inside each dynamic-field copy: a capture memcmp's each
//     contiguous j row against the destination buffer and copies only
//     the rows that changed since that buffer last held them (see
//     RankFieldCopy). Full copies remain the tested fallback.
//
// The restored bytes are identical to what the old synchronous
// serialization restored: the same full padded arrays, minus the stream
// framing. Validated against gather()-visible state and replay bitwise
// equality in tests/test_resilience.cpp.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/types.hpp"
#include "src/core/state.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"

namespace asuca::resilience {

namespace detail {

/// The fields a snapshot must copy every round (everything a step
/// mutates, full padded windows so halos revive exactly).
template <class T, class StateT, class F>
void for_each_dynamic_field(StateT& s, F&& f) {
    f(s.rho);
    f(s.rhou);
    f(s.rhov);
    f(s.rhow);
    f(s.rhotheta);
    f(s.p);
    for (auto& q : s.tracers) f(q);
}

/// The time-invariant reference fields: copied once, restored on demand.
template <class T, class StateT, class F>
void for_each_static_field(StateT& s, F&& f) {
    f(s.rho_ref);
    f(s.p_ref);
    f(s.rhotheta_ref);
    f(s.cs2);
}

}  // namespace detail

/// Raw copies of one rank's dynamic fields. Buffers are sized on first
/// capture and reused; the steady state allocates nothing.
///
/// Incremental mode tracks dirty regions at j-slab granularity: j is the
/// OUTERMOST axis in both storage layouts (layout.hpp — sy is the
/// largest stride in ZXY and XZY alike), so one j-slab is one contiguous
/// chunk of size()/padded_y elements in the flat buffer. A capture
/// memcmp's each slab against the destination buffer and copies only the
/// slabs that changed — correct under ANY buffer staleness (double
/// buffering, missed rounds) because the comparison target IS the
/// destination: equal means the buffer already holds the source bytes,
/// different means they get copied now. The returned byte count is the
/// bytes actually copied (what resilience.snapshot_bytes reports); a
/// localized update copies only the rows it touched. First capture into
/// a fresh buffer is always a full copy.
template <class T>
class RankFieldCopy {
  public:
    void set_incremental(bool on) { incremental_ = on; }

    /// Returns the number of bytes copied.
    std::size_t capture_dynamic(const State<T>& s) {
        std::size_t idx = 0, bytes = 0;
        detail::for_each_dynamic_field<T>(s, [&](const Array3<T>& a) {
            bytes += copy_in(idx++, a);
        });
        return bytes;
    }

    std::size_t capture_static(const State<T>& s) {
        std::size_t idx = 0, bytes = 0;
        detail::for_each_static_field<T>(s, [&](const Array3<T>& a) {
            bytes += copy_in(idx++, a);
        });
        return bytes;
    }

    void restore_dynamic(State<T>& s) const {
        std::size_t idx = 0;
        detail::for_each_dynamic_field<T>(s, [&](Array3<T>& a) {
            copy_out(idx++, a);
        });
    }

    void restore_static(State<T>& s) const {
        std::size_t idx = 0;
        detail::for_each_static_field<T>(s, [&](Array3<T>& a) {
            copy_out(idx++, a);
        });
    }

  private:
    std::size_t copy_in(std::size_t idx, const Array3<T>& a) {
        if (idx >= bufs_.size()) bufs_.resize(idx + 1);
        auto& buf = bufs_[idx];
        const bool fresh = buf.size() != a.size();
        buf.resize(a.size());
        if (!incremental_ || fresh) {
            std::memcpy(buf.data(), a.data(), a.size() * sizeof(T));
            return a.size() * sizeof(T);
        }
        // One contiguous chunk per padded j row (j is outermost in both
        // layouts); compare-then-copy each against the destination.
        const auto rows =
            static_cast<std::size_t>(a.padded_extents().y);
        const std::size_t chunk = a.size() / rows;
        const std::size_t chunk_bytes = chunk * sizeof(T);
        std::size_t bytes = 0;
        const T* src = a.data();
        T* dst = buf.data();
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t at = r * chunk;
            if (std::memcmp(dst + at, src + at, chunk_bytes) != 0) {
                std::memcpy(dst + at, src + at, chunk_bytes);
                bytes += chunk_bytes;
            }
        }
        return bytes;
    }

    void copy_out(std::size_t idx, Array3<T>& a) const {
        ASUCA_ASSERT(idx < bufs_.size() && bufs_[idx].size() == a.size(),
                     "snapshot buffer/field shape mismatch");
        std::memcpy(a.data(), bufs_[idx].data(), a.size() * sizeof(T));
    }

    std::vector<std::vector<T>> bufs_;
    bool incremental_ = false;
};

/// Double-buffered, claim-coordinated asynchronous snapshot store for a
/// set of ranks. Thread roles:
///   driver  — capture_sync / launch / finish / restore / invalidate
///   worker  — the internal snapshot thread (spawned on first launch)
///   ranks   — barrier(r), called just before anything writes rank r's
///             copy source (rank r's step program, an injected fault)
/// The driver calls are only legal while no rank program is running
/// (between steps); barrier(r) is only legal between launch and the
/// driver's next finish() / discard().
template <class T>
class AsyncSnapshotter {
  public:
    using Source = std::function<const State<T>&(Index)>;

    ~AsyncSnapshotter() { stop_worker(); }

    /// `async_source(r)` must yield rank r's copy source for background
    /// rounds (the rank state); it is read from the snapshot thread and
    /// from rank threads. `incremental` turns on j-slab dirty
    /// tracking in the per-rank copies (see RankFieldCopy); off means
    /// the tested fallback of full copies every round.
    void configure(Index ranks, Source async_source,
                   bool incremental = false) {
        ASUCA_REQUIRE(ranks >= 1, "snapshotter needs at least one rank");
        stop_worker();
        nranks_ = ranks;
        async_source_ = std::move(async_source);
        claims_ = std::make_unique<std::atomic<int>[]>(
            static_cast<std::size_t>(ranks));
        for (Index r = 0; r < ranks; ++r) claims_[r] = kIdle;
        for (auto& side : bufs_) {
            side.assign(static_cast<std::size_t>(ranks), RankFieldCopy<T>{});
            for (auto& copy : side) copy.set_incremental(incremental);
        }
        statics_.assign(static_cast<std::size_t>(ranks), RankFieldCopy<T>{});
        statics_valid_ = false;
        valid_ = false;
        round_active_ = false;
        last_round_bytes_ = 0;
    }

    bool configured() const { return nranks_ > 0; }
    bool valid() const { return valid_; }
    bool in_flight() const { return round_active_; }
    long long step() const { return committed_step_; }
    double mass() const { return committed_mass_; }
    /// Bytes actually copied by the most recently promoted round (a
    /// localized-update round copies only its dirty j-slabs when
    /// incremental tracking is on).
    std::size_t last_round_bytes() const { return last_round_bytes_; }

    /// Drop every snapshot (and the statics) — the rank states are about
    /// to be replaced wholesale (scatter, checkpoint load).
    void invalidate() {
        ASUCA_REQUIRE(!round_active_, "invalidate during a snapshot round");
        valid_ = false;
        statics_valid_ = false;
    }

    /// Synchronous capture from `src` on the calling thread, directly
    /// into the COMMITTED side. Used for the initial rollback point.
    void capture_sync(const Source& src, long long step, double mass) {
        ASUCA_REQUIRE(!round_active_, "capture_sync during a round");
        obs::TraceSpan span("snapshot_sync", "resilience");
        std::size_t bytes = 0;
        for (Index r = 0; r < nranks_; ++r) {
            const State<T>& s = src(r);
            bytes += bufs_[committed_][static_cast<std::size_t>(r)]
                         .capture_dynamic(s);
            if (!statics_valid_) {
                bytes += statics_[static_cast<std::size_t>(r)]
                             .capture_static(s);
            }
        }
        statics_valid_ = true;
        committed_step_ = step;
        committed_mass_ = mass;
        valid_ = true;
        last_round_bytes_ = bytes;
        count_bytes(bytes);
    }

    /// Arm a background round of the state at `step`: every rank becomes
    /// claimable, the snapshot thread starts copying from
    /// `async_source`. Call only between steps, with no previous round
    /// active.
    void launch(long long step) {
        ASUCA_REQUIRE(configured(), "snapshotter not configured");
        ASUCA_REQUIRE(!round_active_, "snapshot round already active");
        staging_step_ = step;
        round_bytes_.store(0, std::memory_order_relaxed);
        for (Index r = 0; r < nranks_; ++r) {
            claims_[r].store(kPending, std::memory_order_release);
        }
        round_active_ = true;
        round_start_ = std::chrono::steady_clock::now();
        // On a single-hardware-thread host a background copier cannot
        // overlap with anything — it only adds preemption (a rank
        // spinning in barrier() on a descheduled mid-copy worker).
        // Leave every claim pending: ranks steal their own copy at the
        // stage-0 barrier and finish() sweeps the rest.
        if (std::thread::hardware_concurrency() <= 1) return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (!worker_.joinable()) {
                worker_ = std::thread([this] { worker_loop(); });
            }
            ++work_epoch_;
        }
        cv_.notify_one();
    }

    /// Rank r's copy source is about to be written: make sure rank r is
    /// copied first. Steals the copy inline when the
    /// snapshot thread has not reached this rank yet; otherwise waits
    /// for that one rank's in-progress copy.
    void barrier(Index r) {
        if (!round_active_) return;
        if (try_copy(r)) return;
        // The snapshot thread owns this rank's copy: wait for it. This
        // is the only place a rank can block on the snapshotter, and
        // only for its own rank's in-flight memcpy.
        obs::TraceSpan span("snapshot_wait", r, "resilience");
        auto& c = claims_[r];
        for (int spin = 0; c.load(std::memory_order_acquire) != kDone;
             ++spin) {
            if (spin > 64) std::this_thread::yield();
        }
    }

    /// Driver: complete any outstanding copies of the active round on
    /// the calling thread and promote staging -> committed, with `mass`
    /// as the mass baseline its state committed with. Idempotent; no-op
    /// when no round is active.
    void finish(double mass) {
        if (!round_active_) return;
        obs::TraceSpan span("snapshot_finish", "resilience");
        for (Index r = 0; r < nranks_; ++r) try_copy(r);
        for (Index r = 0; r < nranks_; ++r) {
            auto& c = claims_[r];
            while (c.load(std::memory_order_acquire) != kDone) {
                std::this_thread::yield();
            }
            c.store(kIdle, std::memory_order_relaxed);
        }
        round_active_ = false;
        committed_ ^= 1;
        committed_step_ = staging_step_;
        committed_mass_ = mass;
        valid_ = true;
        last_round_bytes_ = round_bytes_.load(std::memory_order_relaxed);
        count_bytes(last_round_bytes_);
        if (obs::metrics_enabled()) {
            static auto& overlap = obs::MetricsRegistry::global().histogram(
                "resilience.snapshot_overlap_us");
            overlap.observe(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - round_start_)
                    .count());
        }
    }

    /// Driver: drop the active round without promoting it (its step
    /// failed the health scan). Waits only for copies already in
    /// progress; the committed snapshot stays restorable. No-op when no
    /// round is active.
    void discard() {
        if (!round_active_) return;
        for (Index r = 0; r < nranks_; ++r) {
            auto& c = claims_[r];
            int expected = kPending;
            if (!c.compare_exchange_strong(expected, kIdle,
                                           std::memory_order_acq_rel)) {
                while (c.load(std::memory_order_acquire) != kDone) {
                    std::this_thread::yield();
                }
                c.store(kIdle, std::memory_order_relaxed);
            }
        }
        round_active_ = false;
    }

    /// Restore the committed snapshot: dynamic fields from the committed
    /// buffers, static fields from the once-captured copies.
    void restore(const std::function<State<T>&(Index)>& dst) const {
        ASUCA_REQUIRE(valid_ && !round_active_,
                      "no committed snapshot to restore");
        obs::TraceSpan span("snapshot_restore", "resilience");
        for (Index r = 0; r < nranks_; ++r) {
            State<T>& s = dst(r);
            bufs_[committed_][static_cast<std::size_t>(r)]
                .restore_dynamic(s);
            statics_[static_cast<std::size_t>(r)].restore_static(s);
        }
    }

  private:
    // Claim states of one rank's copy within the active round.
    static constexpr int kIdle = 0;     ///< no round / already promoted
    static constexpr int kPending = 1;  ///< copy not started
    static constexpr int kClaimed = 2;  ///< someone is copying
    static constexpr int kDone = 3;     ///< staging buffer holds the copy

    /// Claim and copy rank r if still pending. Returns true when rank r
    /// is NOT owned by another thread afterwards (copied here or
    /// already done); false when another thread holds the claim.
    bool try_copy(Index r) {
        auto& c = claims_[r];
        int expected = kPending;
        if (!c.compare_exchange_strong(expected, kClaimed,
                                       std::memory_order_acq_rel)) {
            return expected == kDone;
        }
        const int staging = committed_ ^ 1;
        std::size_t bytes = 0;
        {
            obs::TraceSpan span("snapshot_copy", r, "resilience");
            const State<T>& s = async_source_(r);
            bytes = bufs_[staging][static_cast<std::size_t>(r)]
                        .capture_dynamic(s);
        }
        round_bytes_.fetch_add(bytes, std::memory_order_relaxed);
        c.store(kDone, std::memory_order_release);
        return true;
    }

    void worker_loop() {
        obs::name_this_thread("snapshot worker");
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [&] {
                    return stop_ || work_epoch_ != seen;
                });
                if (stop_) return;
                seen = work_epoch_;
            }
            for (Index r = 0; r < nranks_; ++r) try_copy(r);
        }
    }

    void stop_worker() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        if (worker_.joinable()) worker_.join();
        stop_ = false;
    }

    static void count_bytes(std::size_t bytes) {
        if (bytes == 0 || !obs::metrics_enabled()) return;
        static auto& counter = obs::MetricsRegistry::global().counter(
            "resilience.snapshot_bytes");
        counter.add(bytes);
    }

    Index nranks_ = 0;
    Source async_source_;
    std::vector<RankFieldCopy<T>> bufs_[2];  ///< double buffer
    std::vector<RankFieldCopy<T>> statics_;  ///< copied once
    bool statics_valid_ = false;
    int committed_ = 0;  ///< which side of bufs_ is restorable
    bool valid_ = false;
    std::size_t last_round_bytes_ = 0;
    long long committed_step_ = 0;
    double committed_mass_ = 0.0;
    // Active round (staging side = committed_ ^ 1).
    bool round_active_ = false;
    long long staging_step_ = 0;
    std::unique_ptr<std::atomic<int>[]> claims_;
    std::atomic<std::size_t> round_bytes_{0};
    std::chrono::steady_clock::time_point round_start_{};
    // Snapshot thread.
    std::thread worker_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t work_epoch_ = 0;
    bool stop_ = false;
};

}  // namespace asuca::resilience
