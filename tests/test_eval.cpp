// Unit tests for src/eval: the unified batched evaluation engine - LRU
// memoisation, within-batch dedup, NaN failure propagation, counters, and
// the moo / Monte Carlo bridges onto the engine. The batch-kind matrix
// (design points over serial/parallel x cache on/off, samples over
// serial/parallel) lives in test_async.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "eval/cache.hpp"
#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "moo/population_eval.hpp"
#include "moo/test_problems.hpp"
#include "moo/wbga.hpp"
#include "support/kernels.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::eval;
using testsupport::per_item;
using testsupport::per_sample;

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

/// Deterministic toy kernel: {sum, product} of the parameters.
std::vector<double> toy_kernel(const EvalRequest& r) {
    double sum = 0.0, prod = 1.0;
    for (double p : r.params) {
        sum += p;
        prod *= p;
    }
    return {sum, prod};
}

EvalBatch toy_batch(std::size_t n) {
    EvalBatch batch;
    for (std::size_t i = 0; i < n; ++i)
        batch.add({static_cast<double>(i), 0.5 * static_cast<double>(i)});
    return batch;
}

// ------------------------------------------------------------------ cache

TEST(LruCache, FindAfterInsert) {
    LruCache cache(4);
    cache.insert({{1.0, 2.0}, 0}, {42.0});
    const auto hit = cache.find({{1.0, 2.0}, 0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ((*hit)[0], 42.0);
    EXPECT_FALSE(cache.find({{1.0, 2.0}, 1})); // other salt
    EXPECT_FALSE(cache.find({{1.0, 2.1}, 0})); // other params
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
    LruCache cache(2);
    cache.insert({{1.0}, 0}, {1.0});
    cache.insert({{2.0}, 0}, {2.0});
    ASSERT_TRUE(cache.find({{1.0}, 0})); // refresh key 1
    cache.insert({{3.0}, 0}, {3.0});  // evicts key 2
    EXPECT_TRUE(cache.find({{1.0}, 0}));
    EXPECT_FALSE(cache.find({{2.0}, 0}));
    EXPECT_TRUE(cache.find({{3.0}, 0}));
    EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, ZeroCapacityDisables) {
    LruCache cache(0);
    cache.insert({{1.0}, 0}, {1.0});
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.find({{1.0}, 0}));
}

TEST(LruCache, BitExactKeying) {
    LruCache cache(4);
    cache.insert({{0.0}, 0}, {1.0});
    // -0.0 == 0.0 as doubles, but the bit patterns differ: no false hit.
    EXPECT_FALSE(cache.find({{-0.0}, 0}));
}

TEST(LruCache, RefreshAtCapacityKeepsSizeAndEvictionOrder) {
    // Regression test for insert()'s refresh semantics: re-inserting a
    // present key must replace its values, promote it to MRU and leave
    // size() alone - never evict to make room for a "new" entry.
    LruCache cache(2);
    cache.insert({{1.0}, 0}, {1.0});
    cache.insert({{2.0}, 0}, {2.0});
    cache.insert({{1.0}, 0}, {10.0}); // refresh at capacity
    EXPECT_EQ(cache.size(), 2u);
    const auto refreshed = cache.find({{1.0}, 0});
    ASSERT_TRUE(refreshed.has_value());
    EXPECT_DOUBLE_EQ((*refreshed)[0], 10.0);
    EXPECT_TRUE(cache.find({{2.0}, 0})); // survived the refresh

    // The refresh moved key 1 to the MRU front, so the next eviction must
    // take key 2 (LRU), not key 1.
    cache.insert({{1.0}, 0}, {11.0}); // key 1 MRU again
    cache.insert({{3.0}, 0}, {3.0});  // evicts key 2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.find({{1.0}, 0}));
    EXPECT_FALSE(cache.find({{2.0}, 0}));
    EXPECT_TRUE(cache.find({{3.0}, 0}));
}

// ----------------------------------------------------------------- engine

TEST(Engine, CacheHitsOnRepeatedPoints) {
    Engine engine;
    const EvalBatch batch = toy_batch(8);
    const auto first = engine.evaluate(batch, per_item(toy_kernel));
    const auto second = engine.evaluate(batch, per_item(toy_kernel));
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(second[i].from_cache);
        EXPECT_EQ(second[i].values, first[i].values);
    }
    EXPECT_EQ(engine.counters().requests, 16u);
    EXPECT_EQ(engine.counters().evaluations, 8u);
    EXPECT_EQ(engine.counters().cache_hits, 8u);
}

TEST(Engine, WithinBatchDedupEvaluatesOnce) {
    Engine engine;
    EvalBatch batch;
    for (int rep = 0; rep < 5; ++rep) batch.add({3.0, 4.0});
    std::atomic<int> calls{0};
    const auto results = engine.evaluate(
        batch, per_item([&calls](const EvalRequest& r) {
            ++calls;
            return toy_kernel(r);
        }));
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(engine.counters().evaluations, 1u);
    EXPECT_EQ(engine.counters().cache_hits, 4u);
    for (const auto& r : results) EXPECT_EQ(r.values, results.front().values);
}

TEST(Engine, TagSeparatesKernelKeySpaces) {
    Engine engine;
    EvalBatch a;
    a.add({1.0, 2.0});
    EvalBatch b(77); // same point, different kernel tag
    b.add({1.0, 2.0});
    const auto ra = engine.evaluate(a, per_item(toy_kernel));
    const auto rb = engine.evaluate(
        b, per_item([](const EvalRequest&) { return std::vector<double>{9.0}; }));
    EXPECT_FALSE(rb.front().from_cache);
    EXPECT_EQ(rb.front().values, std::vector<double>{9.0});
    EXPECT_NE(ra.front().values, rb.front().values);
}

TEST(Engine, NanFailurePropagates) {
    Engine engine;
    EvalBatch batch = toy_batch(6);
    const auto results = engine.evaluate(
        batch, per_item([](const EvalRequest& r) -> std::vector<double> {
            if (r.params[0] >= 3.0) return {nan_v, 1.0};
            return toy_kernel(r);
        }));
    std::size_t failed = 0;
    for (const auto& r : results) {
        if (r.failed()) ++failed;
        // The engine's failure flag and the moo-level helper must agree.
        EXPECT_EQ(r.failed(), moo::evaluation_failed(r.values));
    }
    EXPECT_EQ(failed, 3u);
    EXPECT_EQ(engine.counters().failures, 3u);
}

TEST(Engine, DedupAliasOfFailedSourcePropagatesFailure) {
    // Regression test: within-batch dedup used to copy only `values` from
    // the source item and count every alias as a successful cache hit. A
    // failed source must mark its aliases failed and charge the ledger once
    // per alias.
    Engine engine;
    EvalBatch batch;
    for (int rep = 0; rep < 5; ++rep) batch.add({3.0, 4.0});
    const auto results = engine.evaluate(
        batch, per_item([](const EvalRequest&) -> std::vector<double> {
            return {nan_v, 1.0};
        }));
    ASSERT_EQ(results.size(), 5u);
    for (const auto& r : results) EXPECT_TRUE(r.failed());
    EXPECT_EQ(engine.counters().evaluations, 1u);
    EXPECT_EQ(engine.counters().cache_hits, 4u);
    EXPECT_EQ(engine.counters().failures, 5u); // source + 4 aliases
}

TEST(Engine, CacheHitOfFailedPointCountsAsFailure) {
    // Cross-batch twin of the dedup-alias rule: an LRU hit on a cached NaN
    // row is a request answered by a known-failed evaluation, so it must be
    // flagged and charged exactly like a within-batch alias would be.
    Engine engine;
    const auto kernel = per_item(
        [](const EvalRequest&) -> std::vector<double> { return {nan_v, 1.0}; });
    EvalBatch batch;
    batch.add({6.0, 6.0});
    (void)engine.evaluate(batch, kernel);
    const auto hit = engine.evaluate(batch, kernel);
    EXPECT_TRUE(hit.front().from_cache);
    EXPECT_TRUE(hit.front().failure);
    EXPECT_EQ(engine.counters().evaluations, 1u);
    EXPECT_EQ(engine.counters().cache_hits, 1u);
    EXPECT_EQ(engine.counters().failures, 2u); // fresh failure + its hit
}

TEST(Engine, DedupAliasOfEmptyRowFailurePropagates) {
    // An empty row cannot describe its own failure through the NaN scan, so
    // the explicit failure flag must carry it to the aliases - and the row
    // must stay out of the LRU, where it would come back looking healthy.
    Engine engine;
    EvalBatch batch;
    for (int rep = 0; rep < 3; ++rep) batch.add({7.0});
    const auto kernel =
        per_item([](const EvalRequest&) { return std::vector<double>{}; });
    const auto results = engine.evaluate(batch, kernel);
    for (const auto& r : results) EXPECT_TRUE(r.failed());
    EXPECT_EQ(engine.counters().failures, 3u);
    EXPECT_EQ(engine.cache_size(), 0u);

    // A later batch on the same point re-evaluates instead of hitting a
    // cached empty row.
    EvalBatch again;
    again.add({7.0});
    const auto second = engine.evaluate(again, kernel);
    EXPECT_FALSE(second.front().from_cache);
    EXPECT_TRUE(second.front().failed());
    EXPECT_EQ(engine.counters().evaluations, 2u);
}

TEST(Engine, LruEvictionForcesReEvaluation) {
    EngineConfig config;
    config.cache_capacity = 2;
    Engine engine(config);
    EvalBatch one;
    one.add({1.0});
    (void)engine.evaluate(one, per_item(toy_kernel));
    (void)engine.evaluate(toy_batch(4), per_item(toy_kernel)); // evicts {1.0}
    const auto again = engine.evaluate(one, per_item(toy_kernel));
    EXPECT_FALSE(again.front().from_cache);
    EXPECT_EQ(engine.counters().evaluations, 6u);
}

TEST(Engine, EmptyBatchIsANoOp) {
    Engine engine;
    const auto results = engine.evaluate(EvalBatch{}, per_item(toy_kernel));
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(engine.counters().requests, 0u);
}

TEST(Engine, WallTimeAccumulates) {
    Engine engine;
    (void)engine.evaluate(toy_batch(16), per_item(toy_kernel));
    EXPECT_GE(engine.counters().wall_seconds, 0.0);
    const double after_one = engine.counters().wall_seconds;
    (void)engine.evaluate(toy_batch(16), per_item(toy_kernel));
    EXPECT_GE(engine.counters().wall_seconds, after_one);
}

// ------------------------------------------------- population bridge (moo)

TEST(PopulationEval, MatchesScalarProblemEvaluate) {
    const moo::ZdtProblem problem(1, 6);
    Engine engine;
    std::vector<std::vector<double>> points;
    Rng rng(11);
    for (int i = 0; i < 40; ++i) {
        std::vector<double> p(6);
        for (auto& v : p) v = rng.uniform01();
        points.push_back(p);
    }
    const auto results = moo::evaluate_population(engine, problem, points);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(results[i].values, problem.evaluate(points[i]));
}

TEST(PopulationEval, SharedEngineDoesNotChangeWbgaResults) {
    const moo::ToyAmplifierProblem problem;
    moo::WbgaConfig cfg;
    cfg.population = 16;
    cfg.generations = 8;

    Rng r1(5);
    const auto baseline = moo::Wbga(problem, cfg).run(r1);

    Engine engine;
    cfg.engine = &engine;
    Rng r2(5);
    const auto shared = moo::Wbga(problem, cfg).run(r2);

    ASSERT_EQ(shared.archive.size(), baseline.archive.size());
    for (std::size_t i = 0; i < shared.archive.size(); ++i) {
        EXPECT_EQ(shared.archive[i].objectives, baseline.archive[i].objectives);
        EXPECT_DOUBLE_EQ(shared.archive[i].fitness, baseline.archive[i].fitness);
    }
    // Elites re-enter the population every generation: the engine must have
    // served some of those repeats from its cache.
    EXPECT_EQ(engine.counters().requests, 16u * 8u);
    EXPECT_GT(engine.counters().cache_hits, 0u);
    EXPECT_LT(engine.counters().evaluations, engine.counters().requests);
}

// --------------------------------------------------------- MC runner bridge

TEST(McBridge, FailureMaskReusedAcrossColumnQueries) {
    // Every accessor skips the same failed rows, however often it is asked.
    auto fn = [](std::size_t i, Rng&) -> std::vector<double> {
        if (i % 3 == 0) return {nan_v, nan_v};
        return {static_cast<double>(i), 2.0 * static_cast<double>(i)};
    };
    mc::McConfig config;
    config.samples = 12;
    Engine engine;
    Rng rng(1);
    const auto result = mc::run_monte_carlo(engine, config, rng, per_sample(fn));
    EXPECT_EQ(result.failed(), 4u);
    EXPECT_EQ(result.failed(), 4u);
    EXPECT_EQ(result.column(0),
              (std::vector<double>{1, 2, 4, 5, 7, 8, 10, 11}));
    EXPECT_EQ(result.column(1).size(), 8u);
    EXPECT_EQ(result.column_summary(0).count, 8u);
}

} // namespace
