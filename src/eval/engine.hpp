#pragma once
/// \file engine.hpp
/// \brief Unified batched evaluation engine with async streaming dispatch.
///
/// All repeated-testbench workloads of the Fig. 3 flow - GA populations,
/// the nominal Bode re-measure, per-Pareto-point Monte Carlo, verification
/// - are submitted here instead of hand-rolling their own ThreadPool loops.
/// Two kinds of batch share one queue:
///
///  * design-point batches (EvalBatch + ChunkKernelFn): deterministic
///    points at the nominal process, each with its own EvalResult,
///    memoised in an LRU cache keyed bit-exactly on (params, batch tag) -
///    GA elites, verification of already-evaluated front points. Lookups and
///    within-batch dedup happen at submit(), insertions at retirement, both
///    in submission order, so a submit()+wait() sequence touches the cache
///    exactly like evaluate();
///  * sample batches (a count + SampleKernelFn + Rng): Monte Carlo samples,
///    the only carrier of process variation, never cached. No request or
///    result object exists per sample: sample i is its index and its child
///    stream (base = rng.child(rng.engine()()) drawn at submission, sample
///    i gets base.child(i)), each chunk's kernel returns one flat RowBlock,
///    and wait() hands back the batch's rows joined in sample order. Rows
///    are bit-identical for any thread count.
///
/// The engine owns:
///
///  * scheduling: work is dispatched on a thread pool (the process-wide
///    pool by default, or a private pool of `threads` workers) in
///    worker-sized chunks. submit() enqueues a batch and returns a ticket
///    immediately, so chunks from several batches stream onto the pool
///    together (overlapped Monte Carlo stages); wait() retires batches
///    strictly in submission order, whatever their kind;
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
/// Cache keys cover (params, tag) but not the kernel's
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
#include "eval/row_block.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace ypm::eval {

/// Kernel of a design-point batch: evaluates a chunk of requests at once
/// and returns one value vector per request, element-wise identical to
/// evaluating each request alone (chunk boundaries depend on the worker
/// count).
using ChunkKernelFn = std::function<std::vector<std::vector<double>>(
    const std::vector<const EvalRequest*>&)>;

/// Kernel of a sample batch: the rows of a chunk of samples, one per
/// sample in order; ids[k] is the sample index and rngs[k] its child
/// stream. Every row of a batch must have the same arity, and each row
/// must not depend on how the samples are grouped into chunks.
using SampleKernelFn = std::function<RowBlock(std::span<const std::size_t>,
                                              std::span<Rng>)>;

struct EngineConfig {
    bool parallel = true;       ///< dispatch chunks on the thread pool
    std::size_t threads = 0;    ///< 0 = shared global pool; else private pool
    std::size_t cache_capacity = 4096; ///< LRU entries; 0 disables memoisation
};

/// Evaluation ledger. `requests` counts submitted items (design points and
/// samples); `evaluations` counts actual kernel evaluations (requests minus
/// cache/dedup hits). `failures` counts failed fresh evaluations (a NaN
/// sample row is one) plus every request they answer second-hand - dedup
/// aliases and LRU hits of a failed point each add one, so a failing point
/// is charged once per request consistently, whether the duplicates land
/// in one batch or across batches.
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

    /// Handle of one in-flight submitted batch; `Result` is what wait()
    /// returns for it. Cheap to copy; results are consumed by exactly one
    /// wait() call.
    template <typename Result>
    class BasicTicket {
    public:
        BasicTicket() = default;
        [[nodiscard]] bool valid() const { return pending_ != nullptr; }

    private:
        friend class Engine;
        explicit BasicTicket(std::shared_ptr<Pending> pending)
            : pending_(std::move(pending)) {}
        std::shared_ptr<Pending> pending_;
    };
    using Ticket = BasicTicket<std::vector<EvalResult>>; ///< design points
    using SampleTicket = BasicTicket<RowBlock>;          ///< samples

    /// Enqueue a design-point batch: misses are split into worker-sized
    /// chunks that start evaluating on the pool immediately, and the call
    /// returns without blocking. Cache keys are salted with the batch tag.
    /// The kernel is copied; anything it captures by reference must outlive
    /// the batch's retirement.
    [[nodiscard]] Ticket submit(EvalBatch batch, ChunkKernelFn kernel)
        YPM_EXCLUDES(mutex_);

    /// Enqueue a sample batch of `samples` samples. Advances `rng` once at
    /// submission (so successive submissions differ, in submission order)
    /// and hands sample i the child stream base.child(i), whichever chunk
    /// it lands in. Nothing is cached. The kernel is copied, as above.
    [[nodiscard]] SampleTicket submit(std::size_t samples,
                                      SampleKernelFn kernel, Rng& rng)
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

    /// The sample-batch wait: the batch's rows, sample i in row i. A kernel
    /// that returned the wrong row count for its chunk, or rows whose arity
    /// differs between chunks, throws here, at this batch's ticket.
    [[nodiscard]] RowBlock wait(SampleTicket ticket)
        YPM_EXCLUDES(retire_mutex_, mutex_);

    /// submit() + wait() of a design-point batch. Taking the batch by value
    /// lets rvalue callers move it in for free; lvalue callers pay the same
    /// one copy the submit path needs anyway.
    [[nodiscard]] std::vector<EvalResult>
    evaluate(EvalBatch batch, const ChunkKernelFn& kernel)
        YPM_EXCLUDES(retire_mutex_, mutex_);

    /// Snapshot of the ledger (copied under the engine lock: retirement on
    /// a waiting thread mutates the counters, so a reference would race).
    [[nodiscard]] EngineCounters counters() const YPM_EXCLUDES(mutex_);

    /// Batches submitted but not yet retired.
    [[nodiscard]] std::size_t in_flight() const YPM_EXCLUDES(mutex_);

    [[nodiscard]] const EngineConfig& config() const { return config_; }
    [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

private:
    /// A new batch's Pending block, stamped and numbered.
    [[nodiscard]] std::shared_ptr<Pending> make_pending() const;
    /// Queue a submitted batch for retirement and close its submit span.
    void enqueue(const std::shared_ptr<Pending>& pending) YPM_EXCLUDES(mutex_);
    /// Items per chunk for a batch of `count`: about four chunks a worker.
    [[nodiscard]] std::size_t chunk_size(std::size_t count);
    /// Run `chunk(c, lo, hi)` over the chunks of `size` items that cover
    /// [0, count): async pool jobs, or (serial engines) inline, capturing
    /// any error. Each chunk runs inside an engine.kernel span.
    void dispatch_chunks(Pending& pending, std::size_t count, std::size_t size,
                         std::function<void(std::size_t, std::size_t,
                                            std::size_t)> chunk);
    /// Retire the oldest pending batch: wait for its jobs, then apply its
    /// ledger/cache/alias updates. The "caller holds retire_mutex_ but NOT
    /// mutex_" lock-order contract is compiler-checked: the positive
    /// requirement under -Wthread-safety, the negative one (!mutex_, which
    /// this function acquires internally) under -Wthread-safety-beta.
    void retire_head() YPM_REQUIRES(retire_mutex_, !mutex_);
    /// The shared body of both wait() overloads: retire through `pending`
    /// and mark it consumed; rethrows its kernel error.
    void retire_through(const std::shared_ptr<Pending>& pending)
        YPM_EXCLUDES(retire_mutex_, mutex_);

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
/// exposed for callers that derive seeds from (seed, index) pairs.
[[nodiscard]] std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

} // namespace ypm::eval
