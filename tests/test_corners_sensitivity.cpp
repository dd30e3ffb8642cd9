// Tests for the worst-case corner screening and the finite-difference
// sensitivity report (designer-facing diagnostics layered on the flow).

#include <gtest/gtest.h>

#include <cmath>

#include "core/corners.hpp"
#include "core/sensitivity.hpp"
#include "eval/engine.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::core;

TEST(Corners, SweepCoversAllFiveCorners) {
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    const CornerSweep sweep =
        run_corner_sweep(engine, ev, circuits::OtaSizing{}, sampler);
    ASSERT_EQ(sweep.points.size(), 5u);
    EXPECT_EQ(sweep.points.front().corner, process::Corner::tt);
    for (const auto& p : sweep.points) EXPECT_TRUE(p.valid);
}

TEST(Corners, TypicalInsideTheSpread) {
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    const CornerSweep sweep =
        run_corner_sweep(engine, ev, circuits::OtaSizing{}, sampler);
    const auto& tt = sweep.at(process::Corner::tt);
    EXPECT_GE(tt.gain_db, sweep.gain_min);
    EXPECT_LE(tt.gain_db, sweep.gain_max);
    EXPECT_GE(tt.pm_deg, sweep.pm_min);
    EXPECT_LE(tt.pm_deg, sweep.pm_max);
    // +/-3 sigma corners must actually spread the performance.
    EXPECT_GT(sweep.gain_max - sweep.gain_min, 0.0);
    EXPECT_GT(sweep.dgain_halfspread_pct, 0.0);
}

TEST(Corners, SpreadBracketsGlobalVariationScale) {
    // The corner half-spread is a +/-3 sigma construct of the *global*
    // component, so it should land within an order of magnitude of the MC
    // Δ (which adds mismatch): sanity band, not equality.
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    const CornerSweep sweep =
        run_corner_sweep(engine, ev, circuits::OtaSizing{}, sampler);
    EXPECT_GT(sweep.dgain_halfspread_pct, 0.01);
    EXPECT_LT(sweep.dgain_halfspread_pct, 10.0);
}

TEST(Corners, AtThrowsForMissingCorner) {
    CornerSweep empty;
    EXPECT_THROW((void)empty.at(process::Corner::ff), InvalidInputError);
}

TEST(Sensitivity, ReportCoversAllParameters) {
    const circuits::OtaEvaluator ev;
    eval::Engine engine;
    const SensitivityReport report =
        compute_sensitivities(engine, ev, circuits::OtaSizing{});
    ASSERT_EQ(report.parameters.size(), 8u);
    EXPECT_GT(report.gain_db, 40.0);
    for (const auto& p : report.parameters) {
        EXPECT_FALSE(p.name.empty());
        EXPECT_GT(p.value, 0.0);
        EXPECT_TRUE(std::isfinite(p.gain_elasticity));
        EXPECT_TRUE(std::isfinite(p.pm_elasticity));
    }
}

TEST(Sensitivity, MirrorLengthDominatesGain) {
    // Gain rises with L1 (less channel-length modulation at the output
    // mirror); the report must surface l1 among the strongest gain knobs.
    const circuits::OtaEvaluator ev;
    eval::Engine engine;
    const SensitivityReport report =
        compute_sensitivities(engine, ev, circuits::OtaSizing{});
    double l1_gain = 0.0;
    double max_gain = 0.0;
    for (const auto& p : report.parameters) {
        if (p.name == "l1") l1_gain = std::fabs(p.gain_elasticity);
        max_gain = std::max(max_gain, std::fabs(p.gain_elasticity));
    }
    EXPECT_GT(l1_gain, 0.0);
    EXPECT_GE(l1_gain, 0.3 * max_gain);
}

TEST(Sensitivity, W1MovesPhaseMarginDown) {
    // Widening the mirror outputs (W1) raises B and costs PM - the
    // trade-off behind the paper's Pareto front must show as a negative
    // PM elasticity.
    const circuits::OtaEvaluator ev;
    eval::Engine engine;
    const SensitivityReport report =
        compute_sensitivities(engine, ev, circuits::OtaSizing{});
    for (const auto& p : report.parameters) {
        if (p.name == "w1") {
            EXPECT_LT(p.pm_elasticity, 0.0);
        }
    }
}

TEST(Sensitivity, RejectsBadStep) {
    const circuits::OtaEvaluator ev;
    eval::Engine engine;
    const circuits::OtaSizing sizing;
    EXPECT_THROW((void)compute_sensitivities(engine, ev, sizing, 0.0),
                 InvalidInputError);
    EXPECT_THROW((void)compute_sensitivities(engine, ev, sizing, 0.5),
                 InvalidInputError);
}

TEST(Corners, RepeatedSweepServedFromCache) {
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    const CornerSweep first =
        run_corner_sweep(engine, ev, circuits::OtaSizing{}, sampler);
    EXPECT_EQ(engine.counters().evaluations, 5u);

    // A repeated sweep of the same sizing is served from the cache.
    const CornerSweep again =
        run_corner_sweep(engine, ev, circuits::OtaSizing{}, sampler);
    EXPECT_EQ(engine.counters().evaluations, 5u);
    EXPECT_EQ(engine.counters().cache_hits, 5u);
    EXPECT_DOUBLE_EQ(again.gain_min, first.gain_min);
}

TEST(Sensitivity, ReportSubmitsOneBatch) {
    const circuits::OtaEvaluator ev;
    eval::Engine engine;
    const SensitivityReport report =
        compute_sensitivities(engine, ev, circuits::OtaSizing{});
    // Nominal + 2 probes per parameter, all submitted as one batch.
    EXPECT_EQ(engine.counters().requests, 1u + 2u * report.parameters.size());
}

TEST(Sensitivity, DominantAccessors) {
    const circuits::OtaEvaluator ev;
    eval::Engine engine;
    const SensitivityReport report =
        compute_sensitivities(engine, ev, circuits::OtaSizing{});
    const auto& g = report.dominant_for_gain();
    const auto& p = report.dominant_for_pm();
    for (const auto& q : report.parameters) {
        EXPECT_GE(std::fabs(g.gain_elasticity), std::fabs(q.gain_elasticity));
        EXPECT_GE(std::fabs(p.pm_elasticity), std::fabs(q.pm_elasticity));
    }
}

} // namespace
