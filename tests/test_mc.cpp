// Unit tests for src/mc: statistics, the paper's Δ(%) metric, yield with
// Wilson intervals and the MC runner.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mc/monte_carlo.hpp"
#include "mc/stats.hpp"
#include "mc/yield.hpp"
#include "support/kernels.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::mc;
using testsupport::per_sample;

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------------------------ stats

TEST(Stats, SummaryKnownValues) {
    const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_EQ(s.count, 8u);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12); // unbiased
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, SummaryRejectsEmptyAndNan) {
    EXPECT_THROW((void)summarize({}), NumericalError);
    EXPECT_THROW((void)summarize({1.0, nan_v}), NumericalError);
}

TEST(Stats, SingleElementSummary) {
    const Summary s = summarize({3.0});
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
    const std::vector<double> d = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(d, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(d, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(d, 50.0), 2.5);
    EXPECT_THROW((void)percentile(d, 101.0), InvalidInputError);
}

TEST(Stats, HistogramCountsAndClamps) {
    const auto h = histogram({0.1, 0.9, 1.5, 2.5, -5.0, 99.0}, 3, 0.0, 3.0);
    ASSERT_EQ(h.size(), 3u);
    EXPECT_EQ(h[0], 3u); // 0.1, 0.9, -5 (clamped)
    EXPECT_EQ(h[1], 1u); // 1.5
    EXPECT_EQ(h[2], 2u); // 2.5, 99 (clamped)
}

TEST(Stats, VariationMetricsMatchPaperDefinition) {
    // Population with mean 50, sd ~0.0833 -> Δ3σ = 3*sd/50*100 = 0.5 %.
    std::vector<double> d;
    for (int i = -10; i <= 10; ++i) d.push_back(50.0 + 0.08333 * i / 3.873);
    const VariationMetrics m = variation_metrics(d);
    EXPECT_NEAR(m.summary.mean, 50.0, 1e-6);
    EXPECT_NEAR(m.delta_3sigma_pct, 3.0 * m.summary.stddev / 50.0 * 100.0, 1e-12);
    EXPECT_NEAR(m.delta_halfrange_pct,
                0.5 * (m.summary.max - m.summary.min) / 50.0 * 100.0, 1e-12);
}

TEST(Stats, VariationMetricsDegenerateMean) {
    // Population varying around a zero mean: the relative Δ% is undefined.
    // Contract: both deltas report +inf (worse than any finite threshold,
    // so hygiene filters drop such points) and relative_valid flags it.
    const VariationMetrics zero_mean = variation_metrics({-1.0, 1.0});
    EXPECT_FALSE(zero_mean.relative_valid);
    EXPECT_TRUE(std::isinf(zero_mean.delta_3sigma_pct));
    EXPECT_TRUE(std::isinf(zero_mean.delta_halfrange_pct));
    EXPECT_GT(zero_mean.delta_3sigma_pct, 0.0);

    // Tiny-but-nonzero mean whose ratio overflows: same degenerate contract
    // (this used to silently return +/-inf-ish garbage via the raw divide).
    const VariationMetrics tiny_mean = variation_metrics({-1.0, 1.0 + 1e-300});
    EXPECT_FALSE(tiny_mean.relative_valid);
    EXPECT_TRUE(std::isinf(tiny_mean.delta_3sigma_pct));

    // A constant population has no variation at all - 0 %, even at mean 0.
    const VariationMetrics constant = variation_metrics({0.0, 0.0, 0.0});
    EXPECT_TRUE(constant.relative_valid);
    EXPECT_EQ(constant.delta_3sigma_pct, 0.0);
    EXPECT_EQ(constant.delta_halfrange_pct, 0.0);
}

TEST(Stats, CorrelationKnownCases) {
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
    const std::vector<double> z = {10, 8, 6, 4, 2};
    EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
}

// ------------------------------------------------------------------ yield

TEST(Yield, SpecKindsPassCorrectly) {
    EXPECT_TRUE(Spec::at_least("g", 50.0).pass(50.0));
    EXPECT_TRUE(Spec::at_least("g", 50.0).pass(51.0));
    EXPECT_FALSE(Spec::at_least("g", 50.0).pass(49.9));
    EXPECT_TRUE(Spec::at_most("p", 1.0).pass(0.5));
    EXPECT_FALSE(Spec::at_most("p", 1.0).pass(1.5));
    EXPECT_TRUE(Spec::range("r", 1.0, 2.0).pass(1.5));
    EXPECT_FALSE(Spec::range("r", 1.0, 2.0).pass(2.5));
    EXPECT_FALSE(Spec::at_least("g", 0.0).pass(nan_v));
    EXPECT_THROW((void)Spec::range("bad", 2.0, 1.0), InvalidInputError);
}

TEST(Yield, FromFlagsCountsAndCi) {
    const YieldEstimate y =
        yield_from_flags({true, true, true, false, true, true, true, true, true, true});
    EXPECT_EQ(y.samples, 10u);
    EXPECT_EQ(y.passes, 9u);
    EXPECT_DOUBLE_EQ(y.yield, 0.9);
    EXPECT_LT(y.ci_low, 0.9);
    EXPECT_GT(y.ci_high, 0.9);
    EXPECT_LE(y.ci_high, 1.0);
}

TEST(Yield, PerfectYieldCiBelowOne) {
    // 500/500 passes: the Wilson interval still cannot claim exactly 100 %.
    std::vector<bool> flags(500, true);
    const YieldEstimate y = yield_from_flags(flags);
    EXPECT_DOUBLE_EQ(y.yield, 1.0);
    EXPECT_GT(y.ci_low, 0.99);
    EXPECT_LT(y.ci_low, 1.0);
}

TEST(Yield, MatrixYieldRequiresAllSpecs) {
    const std::vector<Spec> specs = {Spec::at_least("gain", 50.0),
                                     Spec::at_least("pm", 60.0)};
    const eval::RowBlock rows = {
        {51.0, 65.0}, // pass
        {49.0, 65.0}, // gain fails
        {51.0, 55.0}, // pm fails
        {nan_v, 65.0} // failed sim
    };
    const YieldEstimate y = estimate_yield(rows, specs);
    EXPECT_EQ(y.passes, 1u);
    EXPECT_EQ(y.samples, 4u);
}

TEST(Yield, WilsonIntervalKnownValue) {
    // p=0.5, n=100: Wilson 95% ~ [0.404, 0.596].
    const auto [lo, hi] = wilson_interval(50, 100);
    EXPECT_NEAR(lo, 0.404, 0.005);
    EXPECT_NEAR(hi, 0.596, 0.005);
}

TEST(Yield, WilsonIntervalEdgeCases) {
    // 0 samples: no evidence, the vacuous interval.
    const auto [lo0, hi0] = wilson_interval(0, 0);
    EXPECT_EQ(lo0, 0.0);
    EXPECT_EQ(hi0, 1.0);

    // 0 passes out of n: the lower edge is exactly 0, the upper edge is
    // strictly positive (0/50 cannot claim exactly 0 %).
    const auto [lo_none, hi_none] = wilson_interval(0, 50);
    EXPECT_EQ(lo_none, 0.0);
    EXPECT_GT(hi_none, 0.0);
    EXPECT_LT(hi_none, 0.15);

    // All passes: mirror image - upper edge exactly 1, lower edge < 1.
    const auto [lo_all, hi_all] = wilson_interval(50, 50);
    EXPECT_EQ(hi_all, 1.0);
    EXPECT_LT(lo_all, 1.0);
    EXPECT_GT(lo_all, 0.85);

    // Symmetry of the two one-sided cases.
    EXPECT_NEAR(lo_all, 1.0 - hi_none, 1e-12);

    // passes > samples is a caller bug, not a statistics question.
    EXPECT_THROW((void)wilson_interval(2, 1), InvalidInputError);

    // yield_from_flags on an empty population stays consistent with it.
    const YieldEstimate empty = yield_from_flags({});
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_EQ(empty.yield, 0.0);
    EXPECT_EQ(empty.ci_low, 0.0);
    EXPECT_EQ(empty.ci_high, 1.0);
}

// -------------------------------------------------------------- MC runner

TEST(McRunner, DeterministicAcrossThreadCounts) {
    auto fn = [](std::size_t, Rng& rng) -> std::vector<double> {
        return {rng.gauss(10.0, 1.0), rng.uniform(0.0, 1.0)};
    };
    McConfig cfg;
    cfg.samples = 64;
    eval::EngineConfig serial;
    serial.parallel = false;
    eval::Engine serial_engine(serial), parallel_engine;
    Rng r1(5), r2(5);
    const McResult a = run_monte_carlo(serial_engine, cfg, r1, per_sample(fn));
    const McResult b = run_monte_carlo(parallel_engine, cfg, r2, per_sample(fn));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.row(i)[0], b.row(i)[0]);
        EXPECT_DOUBLE_EQ(a.row(i)[1], b.row(i)[1]);
    }
}

TEST(McRunner, SuccessiveRunsDiffer) {
    auto fn = [](std::size_t, Rng& rng) -> std::vector<double> {
        return {rng.uniform01()};
    };
    McConfig cfg;
    cfg.samples = 8;
    Rng rng(9);
    eval::Engine engine;
    const McResult a = run_monte_carlo(engine, cfg, rng, per_sample(fn));
    const McResult b = run_monte_carlo(engine, cfg, rng, per_sample(fn));
    EXPECT_NE(a.row(0)[0], b.row(0)[0]);
}

TEST(McRunner, TracksFailures) {
    auto fn = [](std::size_t i, Rng&) -> std::vector<double> {
        if (i % 4 == 0) return {nan_v};
        return {1.0};
    };
    McConfig cfg;
    cfg.samples = 16;
    Rng rng(1);
    eval::Engine engine;
    const McResult r = run_monte_carlo(engine, cfg, rng, per_sample(fn));
    EXPECT_EQ(r.failed(), 4u);
    EXPECT_EQ(r.column(0).size(), 12u); // failed rows excluded
}

TEST(McRunner, ColumnSummaryGaussian) {
    auto fn = [](std::size_t, Rng& rng) -> std::vector<double> {
        return {rng.gauss(50.0, 0.1)};
    };
    McConfig cfg;
    cfg.samples = 4000;
    Rng rng(21);
    eval::Engine engine;
    const McResult r = run_monte_carlo(engine, cfg, rng, per_sample(fn));
    const Summary s = r.column_summary(0);
    EXPECT_NEAR(s.mean, 50.0, 0.02);
    EXPECT_NEAR(s.stddev, 0.1, 0.01);
    const VariationMetrics v = r.column_variation(0);
    EXPECT_NEAR(v.delta_3sigma_pct, 3.0 * 0.1 / 50.0 * 100.0, 0.08);
}

TEST(McRunner, HandBuiltResultAutoFinalizes) {
    // A hand-built McResult (rows filled directly) answers from its rows:
    // the accessors scan them on every call.
    McResult hand_built;
    hand_built.rows = {{1.0, 2.0}, {nan_v, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(hand_built.failed(), 1u);
    EXPECT_EQ(hand_built.column(0), (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(hand_built.column(1).size(), 2u); // failed row excluded

    // Mutating the rows is seen by the next call.
    hand_built.rows.push_back({nan_v, nan_v});
    EXPECT_EQ(hand_built.failed(), 2u);
    EXPECT_EQ(hand_built.column(1), (std::vector<double>{2.0, 4.0}));
}

TEST(McRunner, FlatRowsKeepNanRowsInPlace) {
    // Rows come back flat, in sample order, NaN rows included: row(i) is a
    // span into one block, failed() counts the NaN rows, and the column
    // accessors skip exactly those.
    auto fn = [](std::size_t i, Rng&) -> std::vector<double> {
        if (i % 3 == 1) return {nan_v, 10.0 + static_cast<double>(i)};
        return {static_cast<double>(i), 10.0 + static_cast<double>(i)};
    };
    McConfig cfg;
    cfg.samples = 9;
    Rng rng(4);
    eval::Engine engine;
    const McResult r = run_monte_carlo(engine, cfg, rng, per_sample(fn));
    ASSERT_EQ(r.size(), 9u);
    EXPECT_EQ(r.rows.arity(), 2u);
    ASSERT_EQ(r.rows.values().size(), 18u);
    for (std::size_t i = 0; i < r.size(); ++i) {
        const std::span<const double> row = r.row(i);
        ASSERT_EQ(row.size(), 2u);
        EXPECT_EQ(row.data(), r.rows.values().data() + 2 * i);
        EXPECT_EQ(row[1], 10.0 + static_cast<double>(i));
        EXPECT_EQ(std::isnan(row[0]), i % 3 == 1) << i;
    }
    EXPECT_EQ(r.failed(), 3u);
    const std::vector<double> col0 = r.column(0);
    EXPECT_EQ(col0, (std::vector<double>{0.0, 2.0, 3.0, 5.0, 6.0, 8.0}));
    EXPECT_EQ(r.column(1).size(), 6u);
    EXPECT_EQ(r.column_summary(1).count, 6u);
    EXPECT_THROW((void)r.column(2), InvalidInputError);
    // An all-NaN result has no column to report.
    McResult all_failed;
    all_failed.rows = {{nan_v}, {nan_v}};
    EXPECT_EQ(all_failed.failed(), 2u);
    EXPECT_THROW((void)all_failed.column(0), NumericalError);
}

TEST(McRunner, RejectsZeroSamples) {
    McConfig cfg;
    cfg.samples = 0;
    Rng rng(1);
    eval::Engine engine;
    EXPECT_THROW(
        (void)run_monte_carlo(engine, cfg, rng,
                              per_sample([](std::size_t, Rng&) {
                                  return std::vector<double>{0.0};
                              })),
        InvalidInputError);
}

} // namespace
