// Dedicated suite for the engine's two batch kinds and their async
// streaming dispatch. Design-point batches (eval::ChunkKernelFn) run over
// {serial, parallel} x {cache on, off}, sample batches (eval::SampleKernelFn)
// over {serial, parallel}: submit()/wait() must match the blocking pattern
// - results, cache behaviour, ledger counters and RNG streams - with
// tracing on or off, every row must equal its per-item reference, and the
// fail-row, wrong-arity and foreign-ticket cases must behave identically in
// every configuration. Plus the ticket discipline (in-order retirement,
// out-of-order waits, error delivery, misuse, destructor drain) and the
// overlapped Monte Carlo entry points.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "obs/trace.hpp"
#include "support/kernels.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::eval;
using testsupport::per_item;

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

std::vector<double> toy_kernel(const EvalRequest& r) {
    double sum = 0.0, prod = 1.0;
    for (double p : r.params) {
        sum += p;
        prod *= p;
    }
    return {sum, prod};
}

EvalBatch toy_batch(std::size_t n, double offset = 0.0) {
    EvalBatch batch;
    for (std::size_t i = 0; i < n; ++i)
        batch.add({offset + static_cast<double>(i),
                   0.5 * static_cast<double>(i)});
    return batch;
}

/// Sequence of batches covering the interesting shapes: distinct points,
/// repeats of an earlier batch (LRU hits), within-batch duplicates
/// (dedup aliases), a NaN-failing point and an empty-row failure.
std::vector<EvalBatch> batch_sequence() {
    std::vector<EvalBatch> seq;
    seq.push_back(toy_batch(17));
    seq.push_back(toy_batch(17));      // full repeat -> cache hits
    EvalBatch dups;
    for (int rep = 0; rep < 4; ++rep) dups.add({2.0, 3.0});
    dups.add({-1.0, 1.0});             // NaN-failing point (see the kernels)
    dups.add({-1.0, 1.0});             // ... and its dedup alias
    dups.add({-2.0, 1.0});             // empty-row failure
    seq.push_back(std::move(dups));
    seq.push_back(toy_batch(5, 100.0));
    return seq;
}

/// Failure conventions shared by both kernel flavours: params[0] in
/// (-2, 0) fails with a NaN row, params[0] <= -2 with an empty row.
std::vector<double> failure_row(const EvalRequest& r) {
    if (r.params[0] <= -2.0) return {};
    return {nan_v, nan_v};
}

std::vector<double> fail_kernel(const EvalRequest& r) {
    if (r.params[0] < 0.0) return failure_row(r);
    return toy_kernel(r);
}

/// The per-sample reference of the sample batches: every seventh sample
/// (ids 3, 10, ...) fails with a NaN row, the others draw from their stream.
std::vector<double> sample_row(std::size_t id, Rng& rng) {
    if (id % 7 == 3) return {nan_v, nan_v};
    return {rng.gauss(static_cast<double>(id), 1.0), rng.uniform01()};
}

/// Sample batch sizes of the sample-kernel suite: a repeat, a batch smaller
/// than the chunk count of a parallel engine, and a single sample.
const std::vector<std::size_t> kSampleBatches = {17, 17, 3, 1, 40};

/// Bit-identical rows: memcmp over the double bit patterns, so NaN failure
/// sentinels compare equal to themselves (the equivalence criterion is
/// bitwise, not IEEE ==).
void expect_bits_identical(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t batch,
                           std::size_t item) {
    ASSERT_EQ(a.size(), b.size()) << "batch " << batch << ", item " << item;
    EXPECT_TRUE(a.empty() ||
                std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0)
        << "batch " << batch << ", item " << item;
}

void expect_same_results(const std::vector<std::vector<EvalResult>>& a,
                         const std::vector<std::vector<EvalResult>>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].size(), b[s].size()) << "batch " << s;
        for (std::size_t i = 0; i < a[s].size(); ++i) {
            expect_bits_identical(a[s][i].values, b[s][i].values, s, i);
            EXPECT_EQ(a[s][i].from_cache, b[s][i].from_cache)
                << "batch " << s << ", item " << i;
            EXPECT_EQ(a[s][i].failed(), b[s][i].failed())
                << "batch " << s << ", item " << i;
        }
    }
}

void expect_same_counters(const EngineCounters& a, const EngineCounters& b) {
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.failures, b.failures);
}

EngineConfig config_with_cache(bool cache) {
    EngineConfig config;
    config.cache_capacity = cache ? 4096 : 0;
    return config;
}

// ---------------------------------------- design-point batches, 4 ways

struct EngineCase {
    bool parallel;
    bool cache;
};

std::string case_name(const ::testing::TestParamInfo<EngineCase>& info) {
    const EngineCase& c = info.param;
    return std::string("Deterministic") + (c.parallel ? "Parallel" : "Serial") +
           (c.cache ? "CacheOn" : "CacheOff");
}

class KernelShape : public ::testing::TestWithParam<EngineCase> {
protected:
    [[nodiscard]] EngineConfig config(std::size_t threads = 0) const {
        EngineConfig config = config_with_cache(GetParam().cache);
        config.parallel = GetParam().parallel;
        config.threads = threads;
        return config;
    }

    /// Submit the whole sequence, either blocking (evaluate per batch) or
    /// as submit()+wait() per batch.
    [[nodiscard]] static std::vector<std::vector<EvalResult>>
    run(Engine& engine, bool async) {
        const ChunkKernelFn k = per_item(fail_kernel);
        std::vector<std::vector<EvalResult>> out;
        for (const EvalBatch& batch : batch_sequence())
            out.push_back(async ? engine.wait(engine.submit(batch, k))
                                : engine.evaluate(batch, k));
        return out;
    }
};

TEST_P(KernelShape, SubmitWaitMatchesEvaluate) {
    Engine blocking(config()), async(config());
    const auto a = run(blocking, false);
    const auto b = run(async, true);
    expect_same_results(a, b);
    expect_same_counters(blocking.counters(), async.counters());
}

TEST_P(KernelShape, TracingIsBitIdentical) {
    // Spans and metrics are observational only: tracing on must leave
    // results and ledger untouched.
    obs::Tracer::global().clear();
    ASSERT_FALSE(obs::Tracer::enabled());
    Engine plain(config());
    const auto untraced = run(plain, true);

    obs::Tracer::set_enabled(true);
    Engine traced(config());
    const auto traced_results = run(traced, true);
    obs::Tracer::set_enabled(false);

    // Spans were actually recorded - the invariant is not vacuous.
    EXPECT_FALSE(obs::Tracer::global().drain().empty());
    expect_same_results(untraced, traced_results);
    expect_same_counters(plain.counters(), traced.counters());
}

TEST_P(KernelShape, RowsMatchPerRequestReference) {
    // Every row equals its request evaluated alone, cached or not.
    Engine engine(config());
    const auto results = run(engine, true);
    const auto seq = batch_sequence();
    for (std::size_t b = 0; b < seq.size(); ++b)
        for (std::size_t i = 0; i < seq[b].size(); ++i)
            expect_bits_identical(results[b][i].values,
                                  fail_kernel(seq[b].items[i]), b, i);
}

TEST_P(KernelShape, LedgerAndCacheAccounting) {
    Engine engine(config());
    const auto results = run(engine, true);
    std::size_t requests = 0, cached = 0, failed = 0;
    for (const auto& batch : results)
        for (const EvalResult& r : batch) {
            ++requests;
            if (r.from_cache) ++cached;
            if (r.failed()) ++failed;
        }
    const EngineCounters c = engine.counters();
    EXPECT_EQ(c.requests, requests);
    EXPECT_EQ(c.cache_hits, cached);
    EXPECT_EQ(c.evaluations + c.cache_hits, c.requests);
    // Failures are charged once per request: the NaN point, its alias and
    // the empty-row point.
    EXPECT_EQ(c.failures, failed);
    EXPECT_EQ(failed, 3u);
    if (!GetParam().cache) {
        EXPECT_EQ(c.cache_hits, 0u);
        EXPECT_EQ(engine.cache_size(), 0u);
    } else {
        // The repeated 17-point batch plus four in-batch aliases
        // ({2, 3} x 3 and the NaN point's alias).
        EXPECT_EQ(c.cache_hits, 17u + 4u);
    }
}

TEST_P(KernelShape, ThreadCountInvariant) {
    std::vector<std::vector<std::vector<EvalResult>>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        Engine engine(config(threads));
        runs.push_back(run(engine, true));
    }
    for (std::size_t t = 1; t < runs.size(); ++t)
        expect_same_results(runs[0], runs[t]);
}

TEST_P(KernelShape, WrongArityThrowsAtItsOwnTicket) {
    Engine engine(config());
    const ChunkKernelFn short_rows =
        [](const std::vector<const EvalRequest*>&) {
            return std::vector<std::vector<double>>{};
        };
    auto bad = engine.submit(toy_batch(4), short_rows);
    auto good = engine.submit(toy_batch(4, 9.0), per_item(toy_kernel));
    // Waiting the later ticket retires the errored batch on the way; its
    // error stays parked on its own ticket, and the ledger keeps only the
    // errored batch's request count.
    const auto results = engine.wait(good);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results.front().failed());
    EXPECT_THROW((void)engine.wait(bad), InvalidInputError);
    EXPECT_EQ(engine.counters().requests, 8u);
    EXPECT_EQ(engine.counters().evaluations, 4u);
}

TEST_P(KernelShape, ForeignTicketIsRejectedWithoutDraining) {
    Engine owner(config()), other(config());
    auto ticket = owner.submit(toy_batch(6), per_item(fail_kernel));
    auto mine = other.submit(toy_batch(2), per_item(toy_kernel));
    EXPECT_THROW((void)other.wait(ticket), InvalidInputError);
    // The rejection happens before any retirement on either engine.
    EXPECT_EQ(other.in_flight(), 1u);
    EXPECT_EQ(owner.in_flight(), 1u);
    EXPECT_EQ(owner.wait(ticket).size(), 6u);
    EXPECT_EQ(other.wait(mine).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Engine, KernelShape,
                         ::testing::Values(EngineCase{false, false},
                                           EngineCase{false, true},
                                           EngineCase{true, false},
                                           EngineCase{true, true}),
                         case_name);

// --------------------------------------------- sample batches, 2 ways

/// Parametrised over parallel (true) vs serial engines. Sample batches are
/// never cached, so every engine here keeps its default cache on, which
/// must stay empty.
class SampleShape : public ::testing::TestWithParam<bool> {
protected:
    [[nodiscard]] EngineConfig config(std::size_t threads = 0) const {
        EngineConfig config;
        config.parallel = GetParam();
        config.threads = threads;
        return config;
    }

    /// Submit every batch of kSampleBatches from one Rng, either waiting
    /// each before the next submit (blocking) or all in flight at once.
    [[nodiscard]] static std::vector<RowBlock> run(Engine& engine, bool async) {
        const SampleKernelFn k = testsupport::per_sample(sample_row);
        Rng rng(42);
        std::vector<RowBlock> out;
        if (!async) {
            for (std::size_t n : kSampleBatches)
                out.push_back(engine.wait(engine.submit(n, k, rng)));
            return out;
        }
        std::vector<Engine::SampleTicket> tickets;
        for (std::size_t n : kSampleBatches)
            tickets.push_back(engine.submit(n, k, rng));
        for (Engine::SampleTicket& t : tickets) out.push_back(engine.wait(t));
        return out;
    }
};

void expect_same_rows(const std::vector<RowBlock>& a,
                      const std::vector<RowBlock>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].size(), b[s].size()) << "batch " << s;
        ASSERT_EQ(a[s].arity(), b[s].arity()) << "batch " << s;
        for (std::size_t i = 0; i < a[s].size(); ++i) {
            const auto ra = a[s].row(i);
            const auto rb = b[s].row(i);
            expect_bits_identical({ra.begin(), ra.end()},
                                  {rb.begin(), rb.end()}, s, i);
        }
    }
}

TEST_P(SampleShape, SubmitWaitMatchesBlocking) {
    Engine blocking(config()), async(config());
    const auto a = run(blocking, false);
    const auto b = run(async, true);
    expect_same_rows(a, b);
    expect_same_counters(blocking.counters(), async.counters());
}

TEST_P(SampleShape, TracingIsBitIdentical) {
    obs::Tracer::global().clear();
    ASSERT_FALSE(obs::Tracer::enabled());
    Engine plain(config());
    const auto untraced = run(plain, true);

    obs::Tracer::set_enabled(true);
    Engine traced(config());
    const auto traced_rows = run(traced, true);
    obs::Tracer::set_enabled(false);

    EXPECT_FALSE(obs::Tracer::global().drain().empty());
    expect_same_rows(untraced, traced_rows);
    expect_same_counters(plain.counters(), traced.counters());
}

TEST_P(SampleShape, RowsMatchPerSampleReferenceStreams) {
    // The documented stream derivation: base = rng.child(rng.engine()())
    // per batch, sample i gets base.child(i), whichever chunk it lands in.
    Engine engine(config());
    const auto rows = run(engine, true);
    Rng rng(42);
    for (std::size_t b = 0; b < kSampleBatches.size(); ++b) {
        const Rng base = rng.child(rng.engine()());
        ASSERT_EQ(rows[b].size(), kSampleBatches[b]);
        for (std::size_t i = 0; i < kSampleBatches[b]; ++i) {
            Rng sample_rng = base.child(i);
            const auto row = rows[b].row(i);
            expect_bits_identical({row.begin(), row.end()},
                                  sample_row(i, sample_rng), b, i);
        }
    }
}

TEST_P(SampleShape, LedgerCountsSamplesAndNanRows) {
    Engine engine(config());
    const auto rows = run(engine, true);
    std::size_t samples = 0, failed = 0;
    for (const RowBlock& block : rows)
        for (std::size_t i = 0; i < block.size(); ++i) {
            ++samples;
            if (std::isnan(block.row(i)[0])) ++failed;
        }
    const EngineCounters c = engine.counters();
    EXPECT_EQ(c.requests, samples);
    EXPECT_EQ(c.evaluations, samples);
    EXPECT_EQ(c.cache_hits, 0u);
    EXPECT_EQ(c.failures, failed);
    // Ids 3 and 10 of both 17-sample batches, and 3, 10, ..., 38 of the 40.
    EXPECT_EQ(failed, 2u * 2u + 6u);
    EXPECT_EQ(engine.cache_size(), 0u);
}

TEST_P(SampleShape, ThreadCountInvariant) {
    EngineConfig serial;
    serial.parallel = false;
    Engine reference_engine(serial);
    const auto reference = run(reference_engine, true);
    for (std::size_t threads : {1u, 2u, 4u}) {
        Engine engine(config(threads));
        expect_same_rows(reference, run(engine, true));
    }
}

TEST_P(SampleShape, WrongRowCountThrowsAtItsOwnTicket) {
    Engine engine(config());
    const SampleKernelFn one_short = [](std::span<const std::size_t> ids,
                                        std::span<Rng>) {
        RowBlock rows(1);
        for (std::size_t k = 1; k < ids.size(); ++k) rows.push_back({1.0});
        return rows;
    };
    Rng rng(1);
    auto bad = engine.submit(8, one_short, rng);
    auto good = engine.submit(8, testsupport::per_sample(sample_row), rng);
    // Waiting the later ticket retires the errored batch on the way; its
    // error stays parked on its own ticket, and the ledger keeps only the
    // errored batch's request count.
    EXPECT_EQ(engine.wait(good).size(), 8u);
    EXPECT_THROW((void)engine.wait(bad), InvalidInputError);
    EXPECT_EQ(engine.counters().requests, 16u);
    EXPECT_EQ(engine.counters().evaluations, 8u);
}

TEST_P(SampleShape, WrongArityThrowsAtItsOwnTicket) {
    // Every engine splits 8 samples into at least four chunks; the chunk
    // holding sample 0 returns rows one value wider than the rest.
    Engine engine(config());
    const SampleKernelFn ragged = [](std::span<const std::size_t> ids,
                                     std::span<Rng>) {
        RowBlock rows(ids.front() == 0 ? 2 : 1);
        for (std::size_t k = 0; k < ids.size(); ++k) (void)rows.append_row();
        return rows;
    };
    Rng rng(1);
    auto bad = engine.submit(8, ragged, rng);
    auto good = engine.submit(8, testsupport::per_sample(sample_row), rng);
    EXPECT_EQ(engine.wait(good).size(), 8u);
    EXPECT_THROW((void)engine.wait(bad), InvalidInputError);
    EXPECT_EQ(engine.counters().requests, 16u);
    EXPECT_EQ(engine.counters().evaluations, 8u);
}

TEST_P(SampleShape, ForeignTicketIsRejectedWithoutDraining) {
    Engine owner(config()), other(config());
    Rng rng(3);
    auto ticket = owner.submit(6, testsupport::per_sample(sample_row), rng);
    auto mine = other.submit(toy_batch(2), per_item(toy_kernel));
    EXPECT_THROW((void)other.wait(ticket), InvalidInputError);
    EXPECT_EQ(other.in_flight(), 1u);
    EXPECT_EQ(owner.in_flight(), 1u);
    EXPECT_EQ(owner.wait(ticket).size(), 6u);
    EXPECT_EQ(other.wait(mine).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Engine, SampleShape, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return std::string(info.param ? "Parallel"
                                                           : "Serial");
                         });

// ----------------------------------------------------- ticket discipline

TEST(AsyncTickets, ManyBatchesInFlightRetireInSubmissionOrder) {
    Engine engine;
    std::vector<Engine::Ticket> tickets;
    for (std::size_t b = 0; b < 8; ++b)
        tickets.push_back(
            engine.submit(toy_batch(32, 10.0 * b), per_item(toy_kernel)));
    EXPECT_EQ(engine.in_flight(), 8u);
    for (std::size_t b = 0; b < 8; ++b) {
        const auto results = engine.wait(tickets[b]);
        ASSERT_EQ(results.size(), 32u);
        for (std::size_t i = 0; i < results.size(); ++i) {
            EvalRequest expected{{10.0 * b + static_cast<double>(i),
                                  0.5 * static_cast<double>(i)}};
            EXPECT_EQ(results[i].values, toy_kernel(expected));
        }
    }
    EXPECT_EQ(engine.in_flight(), 0u);
    EXPECT_EQ(engine.counters().requests, 8u * 32u);
    EXPECT_EQ(engine.counters().evaluations, 8u * 32u);
}

TEST(AsyncTickets, OutOfOrderWaitRetiresEarlierBatchesFirst) {
    Engine engine;
    auto t1 = engine.submit(toy_batch(16), per_item(toy_kernel));
    auto t2 = engine.submit(toy_batch(16, 50.0), per_item(toy_kernel));
    // Waiting the newer ticket retires the older batch first (ledger and
    // cache updates stay in submission order), then the older ticket's
    // results are still available.
    const auto r2 = engine.wait(t2);
    EXPECT_EQ(engine.in_flight(), 0u);
    const auto r1 = engine.wait(t1);
    ASSERT_EQ(r1.size(), 16u);
    ASSERT_EQ(r2.size(), 16u);
    EXPECT_EQ(r1.front().values, toy_kernel(EvalRequest{{0.0, 0.0}}));
    EXPECT_EQ(r2.front().values, toy_kernel(EvalRequest{{50.0, 0.0}}));
}

TEST(AsyncTickets, CacheVisibilityFollowsRetirementOrder) {
    // Submitting B after A has *retired* hits the cache like the blocking
    // path; submitting B while A is still in flight deterministically
    // re-evaluates (lookups happen at submission, insertions at retirement).
    Engine sequential;
    auto a1 = sequential.submit(toy_batch(8), per_item(toy_kernel));
    (void)sequential.wait(a1);
    auto a2 = sequential.submit(toy_batch(8), per_item(toy_kernel));
    (void)sequential.wait(a2);
    EXPECT_EQ(sequential.counters().evaluations, 8u);
    EXPECT_EQ(sequential.counters().cache_hits, 8u);

    Engine overlapped;
    auto b1 = overlapped.submit(toy_batch(8), per_item(toy_kernel));
    auto b2 = overlapped.submit(toy_batch(8), per_item(toy_kernel));
    (void)overlapped.wait(b1);
    (void)overlapped.wait(b2);
    EXPECT_EQ(overlapped.counters().evaluations, 16u);
    EXPECT_EQ(overlapped.counters().cache_hits, 0u);
}

TEST(AsyncTickets, KernelErrorSurfacesAtTheFaultyTicketsWait) {
    Engine engine;
    auto bad = engine.submit(
        toy_batch(4), ChunkKernelFn([](const std::vector<const EvalRequest*>&) {
            return std::vector<std::vector<double>>{}; // wrong arity
        }));
    auto good = engine.submit(toy_batch(4, 9.0), per_item(toy_kernel));
    EXPECT_THROW((void)engine.wait(bad), InvalidInputError);
    // The later batch is unaffected by the earlier failure.
    const auto results = engine.wait(good);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results.front().failed());
}

TEST(AsyncTickets, TicketMisuseIsRejected) {
    Engine engine;
    EXPECT_THROW((void)engine.wait(Engine::Ticket{}), InvalidInputError);
    auto ticket = engine.submit(toy_batch(4), per_item(toy_kernel));
    auto copy = ticket;
    (void)engine.wait(ticket);
    EXPECT_THROW((void)engine.wait(copy), InvalidInputError); // consumed
}

TEST(AsyncTickets, DestructorDrainsInFlightBatches) {
    std::atomic<int> calls{0};
    {
        Engine engine;
        const auto counting = per_item([&calls](const EvalRequest& r) {
            calls.fetch_add(1);
            return toy_kernel(r);
        });
        auto t1 = engine.submit(toy_batch(64), counting);
        auto t2 = engine.submit(toy_batch(64, 7.0), counting);
        (void)t1;
        (void)t2; // dropped without wait(): the engine must drain safely
    }
    EXPECT_EQ(calls.load(), 128);
}

TEST(AsyncTickets, DestructorDrainsInFlightSampleBatches) {
    std::atomic<int> calls{0};
    {
        Engine engine;
        const auto counting = testsupport::per_sample(
            [&calls](std::size_t id, Rng& rng) {
                calls.fetch_add(1);
                return sample_row(id, rng);
            });
        Rng rng(5);
        auto t1 = engine.submit(64, counting, rng);
        auto t2 = engine.submit(toy_batch(8), per_item(toy_kernel));
        auto t3 = engine.submit(64, counting, rng);
        (void)t1;
        (void)t2;
        (void)t3; // dropped without wait(): the engine must drain safely
    }
    EXPECT_EQ(calls.load(), 128);
}

// --------------------------------------------------- Monte Carlo bridge

TEST(AsyncMc, SubmitWaitMatchesBlockingRunner) {
    const auto chunk_fn = mc::ChunkSampleFn(
        [](std::span<const std::size_t> ids, std::span<Rng> rngs) {
            RowBlock rows(2);
            rows.reserve(ids.size());
            for (std::size_t k = 0; k < ids.size(); ++k)
                rows.push_back({rngs[k].gauss(10.0, 1.0), rngs[k].uniform01()});
            return rows;
        });
    mc::McConfig config;
    config.samples = 48;

    Engine e1, e2;
    Rng r1(9), r2(9);
    const auto blocking = mc::run_monte_carlo(e1, config, r1, chunk_fn);
    auto ticket = mc::submit_monte_carlo(e2, config, r2, chunk_fn);
    EXPECT_TRUE(ticket.valid());
    const auto async = mc::wait_monte_carlo(e2, std::move(ticket));

    ASSERT_EQ(async.size(), blocking.size());
    EXPECT_EQ(async.rows, blocking.rows);
    EXPECT_EQ(async.failed(), blocking.failed());
    expect_same_counters(e1.counters(), e2.counters());
}

TEST(AsyncMc, OverlappedRunsMatchSequentialRuns) {
    // Two "Pareto points" with different per-sample behaviour; overlapping
    // their submissions must not change any row of either run.
    auto point_fn = [](double mean) {
        return mc::ChunkSampleFn(
            [mean](std::span<const std::size_t> ids, std::span<Rng> rngs) {
                RowBlock rows(1);
                rows.reserve(ids.size());
                for (std::size_t k = 0; k < ids.size(); ++k)
                    rows.push_back({rngs[k].gauss(mean, 2.0)});
                return rows;
            });
    };
    mc::McConfig config;
    config.samples = 64;

    Engine sequential;
    Rng rs(77);
    const auto s1 = mc::run_monte_carlo(sequential, config, rs, point_fn(1.0));
    const auto s2 = mc::run_monte_carlo(sequential, config, rs, point_fn(200.0));

    Engine overlapped;
    Rng ro(77);
    auto t1 = mc::submit_monte_carlo(overlapped, config, ro, point_fn(1.0));
    auto t2 = mc::submit_monte_carlo(overlapped, config, ro, point_fn(200.0));
    const auto o1 = mc::wait_monte_carlo(overlapped, std::move(t1));
    const auto o2 = mc::wait_monte_carlo(overlapped, std::move(t2));

    EXPECT_EQ(o1.rows, s1.rows);
    EXPECT_EQ(o2.rows, s2.rows);
    expect_same_counters(sequential.counters(), overlapped.counters());
}

TEST(AsyncMc, OverlappedOtaPointsMatchBlockingPoints) {
    // The real thing at a small scale: two OTA sizings, a handful of
    // samples each, overlapped vs blocking - rows must be bit-identical.
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    circuits::OtaSizing a;
    circuits::OtaSizing b;
    b.w1 = 50e-6;
    constexpr std::size_t samples = 10;

    Engine blocking_engine;
    Rng rb(5);
    const auto blocking_a = core::run_ota_monte_carlo(blocking_engine, evaluator,
                                                      a, sampler, samples, rb);
    const auto blocking_b = core::run_ota_monte_carlo(blocking_engine, evaluator,
                                                      b, sampler, samples, rb);

    Engine async_engine;
    Rng ra(5);
    auto ta = core::submit_ota_monte_carlo(async_engine, evaluator, a, sampler,
                                           samples, ra);
    auto tb = core::submit_ota_monte_carlo(async_engine, evaluator, b, sampler,
                                           samples, ra);
    const auto async_a = mc::wait_monte_carlo(async_engine, std::move(ta));
    const auto async_b = mc::wait_monte_carlo(async_engine, std::move(tb));

    EXPECT_EQ(async_a.rows, blocking_a.rows);
    EXPECT_EQ(async_b.rows, blocking_b.rows);
    EXPECT_EQ(async_a.failed(), blocking_a.failed());
    EXPECT_EQ(async_b.failed(), blocking_b.failed());
}

} // namespace
