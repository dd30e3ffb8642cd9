#include "eval/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace ypm::eval {

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return x;
}

namespace {

/// A fresh evaluation failed when its row carries a NaN (the moo::Problem
/// contract) or is empty (a kernel that signals failure by returning no
/// values - the NaN scan alone cannot see those).
bool row_failed(std::span<const double> values) {
    if (values.empty()) return true;
    for (double v : values)
        if (std::isnan(v)) return true;
    return false;
}

/// Engine instruments, resolved once. Unlike the per-instance ledger these
/// aggregate across every engine in the process; always-on (a handful of
/// relaxed atomic adds per *batch*, not per item).
struct EngineMetrics {
    obs::Counter& requests;
    obs::Counter& evaluations;
    obs::Counter& cache_hits;
    obs::Counter& dedup_aliases;
    obs::Counter& failures;

    static EngineMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static EngineMetrics metrics{registry.counter("engine.requests"),
                                     registry.counter("engine.evaluations"),
                                     registry.counter("engine.cache_hits"),
                                     registry.counter("engine.dedup_aliases"),
                                     registry.counter("engine.failures")};
        return metrics;
    }
};

/// Process-wide batch sequence: gives every submitted batch a unique id
/// that kernel spans carry, so a trace viewer can associate an engine.batch
/// span with the kernel chunks it fanned out (across engines, too).
std::atomic<std::uint64_t> g_batch_seq{0};

} // namespace

/// In-flight state of one submitted batch. Owned jointly by the ticket and
/// the engine's retirement queue; pool jobs reference it through a raw
/// pointer, which is safe because retirement always waits for the jobs
/// before the queue drops its reference.
struct Engine::Pending {
    const Engine* owner = nullptr;     ///< rejects tickets waited elsewhere
    std::size_t items = 0;             ///< design points or samples
    ThreadPool::Job job;               ///< invalid when dispatched inline
    std::exception_ptr error;          ///< first kernel error, if any
    std::uint64_t seq = 0;             ///< process-wide batch id (tracing)
    util::TickNs submitted_at = 0;     ///< submit stamp (engine.batch span)
    bool retired = false;
    bool taken = false;                ///< results consumed by a wait()

    // Design-point batch.
    EvalBatch batch;                   ///< owned copy; jobs read items from it
    std::vector<EvalResult> results;
    std::vector<std::size_t> misses;   ///< batch indices needing evaluation
    std::vector<CacheKey> keys;        ///< per-item keys (cache enabled only)
    std::vector<std::pair<std::size_t, std::size_t>> aliases; ///< (dup, source)
    bool use_cache = false;

    // Sample batch.
    bool sampled = false;
    std::optional<Rng> base;           ///< sample i draws from base->child(i)
    std::vector<std::size_t> ids;      ///< 0..items-1, sliced per chunk
    /// The batch's rows: sized by the first chunk to finish, which fixes
    /// the arity, then filled in place by every chunk at its own offset.
    RowBlock rows;
    std::once_flag rows_sized;
    std::atomic<std::size_t> nan_rows{0}; ///< rows holding a NaN
};

Engine::Engine(EngineConfig config)
    : config_(config),
      pool_(config.threads > 0 ? std::make_unique<ThreadPool>(config.threads)
                               : nullptr),
      cache_(config.cache_capacity) {}

Engine::~Engine() {
    // Drain in-flight batches: queued jobs write into their Pending blocks,
    // so those must stay alive until every job has finished.
    const util::MutexLock retire_lock(retire_mutex_);
    for (;;) {
        {
            const util::MutexLock lock(mutex_);
            if (queue_.empty()) break;
        }
        try {
            retire_head();
        } catch (...) {
            // Destructor drain: nobody is left to receive kernel errors.
        }
    }
}

ThreadPool& Engine::pool() { return pool_ ? *pool_ : ThreadPool::global(); }

std::size_t Engine::in_flight() const {
    const util::MutexLock lock(mutex_);
    return queue_.size();
}

EngineCounters Engine::counters() const {
    const util::MutexLock lock(mutex_);
    return counters_;
}

std::shared_ptr<Engine::Pending> Engine::make_pending() const {
    auto pending = std::make_shared<Pending>();
    pending->owner = this;
    pending->seq = g_batch_seq.fetch_add(1, std::memory_order_relaxed) + 1;
    pending->submitted_at = util::now_ns();
    return pending;
}

void Engine::enqueue(const std::shared_ptr<Pending>& pending) {
    {
        const util::MutexLock lock(mutex_);
        queue_.push_back(pending);
        counters_.wall_seconds += util::seconds_since(pending->submitted_at);
    }
    if (!obs::Tracer::enabled()) return;
    const std::size_t evaluated =
        pending->sampled ? pending->items : pending->misses.size();
    obs::Tracer::record_complete(
        "engine.submit", "engine", pending->submitted_at, util::now_ns(),
        {{"batch", static_cast<double>(pending->seq)},
         {"items", static_cast<double>(pending->items)},
         {"misses", static_cast<double>(evaluated)},
         {"cache_hits", static_cast<double>(pending->items - evaluated -
                                            pending->aliases.size())}});
}

Engine::Ticket Engine::submit(EvalBatch batch, ChunkKernelFn kernel) {
    const std::shared_ptr<Pending> pending = make_pending();
    pending->batch = std::move(batch);
    const std::size_t n = pending->batch.size();
    pending->items = n;
    pending->results.resize(n);
    pending->use_cache = cache_.capacity() > 0;
    const std::uint64_t tag = pending->batch.tag;

    // Front phase, on the submitting thread: ledger request count, cache
    // lookups and within-batch dedup. Happens in submission order, so the
    // cache sees exactly the state every previously *retired* batch left.
    std::size_t front_hits = 0;
    {
        const util::MutexLock lock(mutex_);
        counters_.requests += n;
        pending->misses.reserve(n);
        if (pending->use_cache) pending->keys.resize(n);
        // Within-batch dedup: key -> batch index of the first occurrence.
        std::unordered_map<CacheKey, std::size_t, CacheKeyHash> first_seen;
        for (std::size_t i = 0; i < n; ++i) {
            const EvalRequest& item = pending->batch.items[i];
            if (!pending->use_cache) {
                pending->misses.push_back(i);
                continue;
            }
            pending->keys[i] = CacheKey{item.params, tag};
            if (auto hit = cache_.find(pending->keys[i])) {
                pending->results[i].values = std::move(*hit);
                pending->results[i].from_cache = true;
                // A hit on a cached failure (NaN row - empty failures are
                // never cached) is a request answered by a known-failed
                // evaluation: flag it and charge the ledger, exactly like a
                // within-batch dedup alias of a failed source.
                pending->results[i].failure = row_failed(pending->results[i].values);
                ++counters_.cache_hits;
                ++front_hits;
                if (pending->results[i].failure) ++counters_.failures;
                continue;
            }
            const auto [it, inserted] = first_seen.emplace(pending->keys[i], i);
            if (inserted)
                pending->misses.push_back(i);
            else
                pending->aliases.emplace_back(i, it->second);
        }
    }

    EngineMetrics& metrics = EngineMetrics::get();
    metrics.requests.add(n);
    metrics.cache_hits.add(front_hits);

    // Start the misses. Parallel engines enqueue pool jobs and return
    // immediately; serial engines evaluate inline here (still deferring
    // ledger/cache retirement to wait(), so both paths retire identically).
    Pending* p = pending.get();
    const std::size_t count = pending->misses.size();
    dispatch_chunks(
        *pending, count, chunk_size(count),
        [p, kernel = std::move(kernel)](std::size_t, std::size_t lo,
                                        std::size_t hi) {
            std::vector<const EvalRequest*> reqs;
            reqs.reserve(hi - lo);
            for (std::size_t k = lo; k < hi; ++k)
                reqs.push_back(&p->batch.items[p->misses[k]]);
            auto out = kernel(reqs);
            if (out.size() != reqs.size())
                throw InvalidInputError(
                    "eval::Engine: chunk kernel returned wrong batch size");
            for (std::size_t k = lo; k < hi; ++k)
                p->results[p->misses[k]].values = std::move(out[k - lo]);
        });
    enqueue(pending);
    return Ticket(pending);
}

Engine::SampleTicket Engine::submit(std::size_t samples, SampleKernelFn kernel,
                                    Rng& rng) {
    const std::shared_ptr<Pending> pending = make_pending();
    pending->sampled = true;
    pending->items = samples;
    // Same derivation as the original Monte Carlo runner: one child stream
    // per sample from the caller's RNG (identical for any thread count),
    // with the parent advanced once at submission so successive batches
    // differ.
    pending->base = rng.child(rng.engine()());
    pending->ids.resize(samples);
    std::iota(pending->ids.begin(), pending->ids.end(), std::size_t{0});
    {
        const util::MutexLock lock(mutex_);
        counters_.requests += samples;
    }
    EngineMetrics::get().requests.add(samples);

    Pending* p = pending.get();
    dispatch_chunks(
        *pending, samples, chunk_size(samples),
        [p, kernel = std::move(kernel)](std::size_t, std::size_t lo,
                                        std::size_t hi) {
            // Sample i gets base.child(i), whichever chunk it lands in,
            // built by the batch constructor.
            const auto ids =
                std::span<const std::size_t>(p->ids).subspan(lo, hi - lo);
            std::vector<Rng> rngs;
            p->base->children(ids, rngs);
            const RowBlock block = kernel(ids, rngs);
            if (block.size() != ids.size())
                throw InvalidInputError(
                    "eval::Engine: sample kernel returned the wrong row count");
            // The chunk joins its rows into the batch's block itself, while
            // they are still in this worker's cache, and counts their NaN
            // rows: retirement on the calling thread only takes the block.
            std::call_once(p->rows_sized, [&] {
                p->rows = RowBlock(block.arity(), p->items);
            });
            if (block.arity() != p->rows.arity())
                throw InvalidInputError(
                    "eval::Engine: sample kernel returned rows of differing "
                    "arity");
            std::size_t nan_rows = 0;
            for (std::size_t k = 0; k < block.size(); ++k)
                if (row_failed(block.row(k))) ++nan_rows;
            std::copy(block.values().begin(), block.values().end(),
                      p->rows.values().begin() +
                          static_cast<std::ptrdiff_t>(lo * block.arity()));
            p->nan_rows.fetch_add(nan_rows, std::memory_order_relaxed);
        });
    enqueue(pending);
    return SampleTicket(pending);
}

std::size_t Engine::chunk_size(std::size_t count) {
    // Worker-sized chunks keep chunk kernels busy without starving the
    // pool; boundaries never change the element-wise results.
    const std::size_t workers =
        config_.parallel ? std::max<std::size_t>(pool().size(), 1) : 1;
    return std::max<std::size_t>(1, (count + workers * 4 - 1) / (workers * 4));
}

void Engine::dispatch_chunks(
    Pending& pending, std::size_t count, std::size_t size,
    std::function<void(std::size_t, std::size_t, std::size_t)> chunk) {
    if (count == 0) return;
    const std::size_t n_chunks = (count + size - 1) / size;
    const std::uint64_t seq = pending.seq;
    auto run = [seq, size, count, chunk = std::move(chunk)](std::size_t c) {
        const std::size_t lo = c * size;
        const std::size_t hi = std::min(count, lo + size);
        obs::Span span("engine.kernel", "kernel");
        span.arg("batch", static_cast<double>(seq));
        span.arg("chunk", static_cast<double>(c));
        span.arg("items", static_cast<double>(hi - lo));
        chunk(c, lo, hi);
    };
    if (!config_.parallel) {
        try {
            for (std::size_t c = 0; c < n_chunks; ++c) run(c);
        } catch (...) {
            pending.error = std::current_exception();
        }
        return;
    }
    pending.job = pool().parallel_for_async(n_chunks, std::move(run));
}

void Engine::retire_head() {
    std::shared_ptr<Pending> head;
    {
        const util::MutexLock lock(mutex_);
        head = queue_.front();
    }

    // Block (off the engine mutex) until the batch's jobs are done.
    std::exception_ptr error = head->error;
    if (!error) {
        try {
            head->job.wait();
        } catch (...) {
            error = std::current_exception();
        }
    }
    // The job's completion orders every chunk's count before this load.
    std::size_t batch_failures = head->nan_rows.load(std::memory_order_relaxed);

    const std::size_t evaluated =
        head->sampled ? head->items : head->misses.size();
    {
        const util::MutexLock lock(mutex_);
        head->retired = true;
        queue_.pop_front();
        if (error) {
            // Mirror the blocking path: a kernel error leaves only the
            // request count in the ledger and nothing in the cache; the
            // error surfaces from this ticket's wait().
            head->error = error;
            return;
        }

        counters_.evaluations += evaluated;
        counters_.failures += batch_failures;
        for (std::size_t idx : head->misses) {
            EvalResult& r = head->results[idx];
            r.failure = row_failed(r.values);
            if (r.failure) ++counters_.failures;
            if (r.failure) ++batch_failures;
            // NaN rows self-describe their failure, so caching them still
            // spares the re-simulation of a known-failing point; empty rows
            // would come back looking successful, so they stay out.
            if (head->use_cache && !r.values.empty())
                cache_.insert(head->keys[idx], r.values);
        }
        for (const auto& [dup, source] : head->aliases) {
            const EvalResult& src = head->results[source];
            EvalResult& dst = head->results[dup];
            dst.values = src.values;
            dst.failure = src.failure;
            dst.from_cache = true;
            ++counters_.cache_hits;
            // A failed source fans its failure out to every alias: each was
            // a request that got a failed answer, and the ledger counts it
            // so.
            if (dst.failure) ++counters_.failures;
            if (dst.failure) ++batch_failures;
        }
    }

    // Observational only, outside the engine lock: process-wide counters
    // and the batch's submit-to-retire span.
    EngineMetrics& metrics = EngineMetrics::get();
    metrics.evaluations.add(evaluated);
    metrics.cache_hits.add(head->aliases.size());
    metrics.dedup_aliases.add(head->aliases.size());
    metrics.failures.add(batch_failures);
    if (obs::Tracer::enabled())
        obs::Tracer::record_complete(
            "engine.batch", "engine", head->submitted_at, util::now_ns(),
            {{"batch", static_cast<double>(head->seq)},
             {"items", static_cast<double>(head->items)},
             {"evaluations", static_cast<double>(evaluated)},
             {"aliases", static_cast<double>(head->aliases.size())},
             {"failures", static_cast<double>(batch_failures)}});
}

void Engine::retire_through(const std::shared_ptr<Pending>& pending) {
    const util::TickNs t0 = util::now_ns();
    if (!pending)
        throw InvalidInputError("eval::Engine::wait: invalid ticket");
    // Reject foreign tickets before retiring anything: without this check
    // the loop below would drain this engine's whole queue (side effects
    // included) before noticing the ticket can never retire here.
    if (pending->owner != this)
        throw InvalidInputError(
            "eval::Engine::wait: ticket does not belong to this engine");

    const util::MutexLock retire_lock(retire_mutex_);
    for (;;) {
        {
            const util::MutexLock lock(mutex_);
            if (pending->retired) break;
        }
        retire_head();
    }

    const util::MutexLock lock(mutex_);
    if (pending->taken)
        throw InvalidInputError("eval::Engine::wait: ticket already consumed");
    pending->taken = true;
    // Calling-thread time only: overlapped batches retire while an earlier
    // wait() blocks, so summing per-thread time never double-counts (and
    // equals the old "time inside evaluate()" for the blocking pattern).
    counters_.wall_seconds += util::seconds_since(t0);
    if (obs::Tracer::enabled())
        obs::Tracer::record_complete(
            "engine.wait", "engine", t0, util::now_ns(),
            {{"batch", static_cast<double>(pending->seq)}});
    if (pending->error) std::rethrow_exception(pending->error);
}

std::vector<EvalResult> Engine::wait(Ticket ticket) {
    const std::shared_ptr<Pending> pending = std::move(ticket.pending_);
    retire_through(pending);
    return std::move(pending->results);
}

RowBlock Engine::wait(SampleTicket ticket) {
    const std::shared_ptr<Pending> pending = std::move(ticket.pending_);
    retire_through(pending);
    return std::move(pending->rows);
}

std::vector<EvalResult> Engine::evaluate(EvalBatch batch,
                                         const ChunkKernelFn& kernel) {
    return wait(submit(std::move(batch), kernel));
}

} // namespace ypm::eval
