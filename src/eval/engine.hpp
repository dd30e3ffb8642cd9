#pragma once
/// \file engine.hpp
/// \brief Unified batched evaluation engine with async streaming dispatch.
///
/// All repeated-testbench workloads of the Fig. 3 flow - GA populations,
/// per-Pareto-point Monte Carlo, corner sweeps, sensitivity probes,
/// verification - submit EvalBatches here instead of hand-rolling their own
/// ThreadPool loops. The engine owns:
///
///  * scheduling: misses are dispatched on a thread pool (the process-wide
///    pool by default, or a private pool of `threads` workers). submit()
///    enqueues a batch and returns a Ticket immediately, so misses from
///    several batches stream onto the pool together (overlapped Monte Carlo
///    stages); wait() retires batches strictly in submission order.
///    evaluate() is submit() + wait() in one call;
///  * one kernel shape (ChunkKernelFn): misses are evaluated in
///    worker-sized chunks; stochastic batches hand the kernel per-item RNG
///    child streams (base = rng.child(rng.engine()()) drawn at submission,
///    item i gets base.child(i)), deterministic batches an empty span, so
///    results are bit-identical for any thread count and identical between
///    the blocking and async paths. Scalar callers are one-point batches;
///    per-request test lambdas adapt through tests/support;
///  * memoisation: an LRU cache keyed bit-exactly on (params, process key,
///    batch tag / stream seed) serves repeated points - GA elites, repeated
///    corner sweeps, sensitivity probes on archived designs. Lookups happen
///    at submit(), insertions at retirement, both in submission order, so a
///    submit()+wait() sequence touches the cache exactly like evaluate();
///  * accounting: one ledger of requests, kernel evaluations, cache hits,
///    failures and wall time that feeds FlowTimings and the Table 5 bench.
///
/// Threading contract: submit()/evaluate() must be called from one thread
/// at a time (kernels themselves run on the pool and must be thread-safe
/// and must outlive the batch's retirement). wait() may be called from a
/// different thread than submit(), and concurrent waiters serialise on an
/// internal retirement lock; the cache is internally thread-safe so
/// submission-time lookups may overlap a concurrent retirement.
///
/// Lock order: retire_mutex_ strictly before mutex_ (wait() and the
/// destructor take the retirement lock, then retire_head() briefly takes
/// the engine mutex for queue/ledger updates). The contract is spelled out
/// with capability annotations - YPM_EXCLUDES on every public entry point
/// that acquires a lock internally, and a negative requirement (!mutex_)
/// on retire_head() - which the ci-analyze preset checks under Clang
/// -Wthread-safety / -Wthread-safety-beta.
///
/// Memoisation contract: one engine instance serves one design context.
/// Cache keys cover (params, process key, tag/stream) but not the kernel's
/// captured state, so batches submitted to a shared engine must evaluate
/// the same testbench / process deck per tag - use a separate engine per
/// context.

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "eval/cache.hpp"
#include "eval/request.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace ypm::eval {

/// The engine's one kernel shape: evaluates a chunk of requests at once and
/// returns one value vector per request, element-wise identical to
/// evaluating each request alone (chunk boundaries depend on the worker
/// count). A batch submitted with an Rng hands the kernel one child stream
/// per request (rngs[k] belongs to requests[k], see submit()); a
/// deterministic batch hands it an empty span.
using ChunkKernelFn = std::function<std::vector<std::vector<double>>(
    const std::vector<const EvalRequest*>&, std::span<Rng>)>;

struct EngineConfig {
    bool parallel = true;       ///< dispatch misses on the thread pool
    std::size_t threads = 0;    ///< 0 = shared global pool; else private pool
    std::size_t cache_capacity = 4096; ///< LRU entries; 0 disables memoisation
};

/// Evaluation ledger. `requests` counts submitted items; `evaluations`
/// counts actual kernel invocations (requests minus cache/dedup hits).
/// `failures` counts failed fresh evaluations plus every request they
/// answer second-hand - dedup aliases and LRU hits of a failed point each
/// add one, so a failing point is charged once per request consistently,
/// whether the duplicates land in one batch or across batches.
struct EngineCounters {
    std::size_t requests = 0;
    std::size_t evaluations = 0;
    std::size_t cache_hits = 0;
    std::size_t failures = 0;
    /// Calling-thread time spent inside submit()/wait() (equals the old
    /// "time inside evaluate()" for the blocking pattern; overlapped
    /// batches retiring during an earlier wait() are not double-counted).
    double wall_seconds = 0.0;
};

class Engine {
    struct Pending; ///< one submitted batch's in-flight state (engine.cpp)

public:
    explicit Engine(EngineConfig config = {});
    /// Retires every still-pending batch (discarding results and swallowing
    /// kernel errors) so no queued job outlives the engine's state.
    ~Engine() YPM_EXCLUDES(retire_mutex_, mutex_);

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Handle of one in-flight submitted batch. Cheap to copy; results are
    /// consumed by exactly one wait() call.
    class Ticket {
    public:
        Ticket() = default;
        [[nodiscard]] bool valid() const { return pending_ != nullptr; }

    private:
        friend class Engine;
        explicit Ticket(std::shared_ptr<Pending> pending)
            : pending_(std::move(pending)) {}
        std::shared_ptr<Pending> pending_;
    };

    /// Enqueue a deterministic batch: misses are split into worker-sized
    /// chunks that start evaluating on the pool immediately (the kernel sees
    /// an empty RNG span), and the call returns without blocking. Cache keys
    /// are salted with the batch tag. The kernel is copied; anything it
    /// captures by reference must outlive the batch's retirement.
    [[nodiscard]] Ticket submit(EvalBatch batch, ChunkKernelFn kernel)
        YPM_EXCLUDES(mutex_);

    /// Enqueue a stochastic batch. Advances `rng` once at submission (so
    /// successive submissions differ, in submission order) and hands item i
    /// the deterministic child stream base.child(i), whichever chunk it
    /// lands in; cache keys are salted per item stream instead of per tag.
    [[nodiscard]] Ticket submit(EvalBatch batch, ChunkKernelFn kernel, Rng& rng)
        YPM_EXCLUDES(mutex_);

    /// Block until `ticket`'s batch (and every batch submitted before it)
    /// has retired, then return its results. Retirement is strictly in
    /// submission order: ledger updates, cache insertions and alias fills
    /// happen in the same order as the blocking path, so evaluate() and
    /// submit()+wait() are bit-identical, counters included. Rethrows the
    /// batch's kernel exception, if any. Each ticket can be waited once.
    /// Entering with either engine lock held would self-deadlock; the
    /// EXCLUDES below makes that a compile error on the Clang CI leg.
    [[nodiscard]] std::vector<EvalResult> wait(Ticket ticket)
        YPM_EXCLUDES(retire_mutex_, mutex_);

    /// submit() + wait() of a deterministic batch. Taking the batch by value
    /// lets rvalue callers move it in for free; lvalue callers pay the same
    /// one copy the submit path needs anyway.
    [[nodiscard]] std::vector<EvalResult>
    evaluate(EvalBatch batch, const ChunkKernelFn& kernel)
        YPM_EXCLUDES(retire_mutex_, mutex_);

    /// submit() + wait() of a stochastic batch.
    [[nodiscard]] std::vector<EvalResult>
    evaluate(EvalBatch batch, const ChunkKernelFn& kernel, Rng& rng)
        YPM_EXCLUDES(retire_mutex_, mutex_);

    /// Snapshot of the ledger (copied under the engine lock: retirement on
    /// a waiting thread mutates the counters, so a reference would race).
    [[nodiscard]] EngineCounters counters() const YPM_EXCLUDES(mutex_);

    /// Batches submitted but not yet retired.
    [[nodiscard]] std::size_t in_flight() const YPM_EXCLUDES(mutex_);

    [[nodiscard]] const EngineConfig& config() const { return config_; }
    [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

private:
    /// Shared body of both submit() overloads: `base` is the stochastic
    /// batch's stream root, or empty for a deterministic batch.
    [[nodiscard]] Ticket submit_impl(EvalBatch batch, ChunkKernelFn kernel,
                                     std::optional<Rng> base)
        YPM_EXCLUDES(mutex_);
    /// Start the misses: launch async pool jobs over worker-sized chunks,
    /// or (serial engines) evaluate inline, capturing any error.
    void dispatch_chunks(Pending& pending, ChunkKernelFn kernel,
                         std::optional<Rng> base);
    /// Retire the oldest pending batch: wait for its jobs, then apply its
    /// ledger/cache/alias updates. The "caller holds retire_mutex_ but NOT
    /// mutex_" lock-order contract is compiler-checked: the positive
    /// requirement under -Wthread-safety, the negative one (!mutex_, which
    /// this function acquires internally) under -Wthread-safety-beta.
    void retire_head() YPM_REQUIRES(retire_mutex_, !mutex_);

    [[nodiscard]] ThreadPool& pool();

    EngineConfig config_;
    std::unique_ptr<ThreadPool> pool_; ///< only when config_.threads > 0
    LruCache cache_;
    EngineCounters counters_ YPM_GUARDED_BY(mutex_);
    mutable util::Mutex mutex_;  ///< guards counters_ and queue_
    util::Mutex retire_mutex_;   ///< serialises retirement across waiters
    std::deque<std::shared_ptr<Pending>> queue_
        YPM_GUARDED_BY(mutex_); ///< submission order
};

/// Deterministic 64-bit mix (splitmix64 finaliser over a seed combine);
/// used for stochastic cache salts and exposed for tests.
[[nodiscard]] std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

} // namespace ypm::eval
