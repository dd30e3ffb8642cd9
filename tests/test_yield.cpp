// Unit tests for the variance-reduction yield engine: shifted process
// sampling with exact likelihood ratios, the unnormalized fail-side weighted
// estimator, ISLE-style shift fitting, and the sequential streaming driver
// (zero-shift bit-identity with plain MC, early-stop determinism across
// inflight windows, importance sampling beating plain MC on a rare spec,
// the multi-point driver matching single-point runs bit for bit).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "circuits/ota.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/yield.hpp"
#include "process/process_card.hpp"
#include "process/sampler.hpp"
#include "process/variation.hpp"
#include "support/oracles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "yield/scenarios.hpp"
#include "yield/sequential.hpp"
#include "yield/shift.hpp"
#include "yield/weighted.hpp"

namespace {

using namespace ypm;

eval::Engine make_engine(bool parallel = true) {
    eval::EngineConfig config;
    config.parallel = parallel;
    config.cache_capacity = 0;
    return eval::Engine(config);
}

// The synthetic kernels and the mixture-draw reference implementation live
// in the shared scenario registry (yield/scenarios.hpp), consumed by this
// suite, the conformance suite and the benches alike.
using yield::draw_mixture_u;
using yield::synthetic_factory;

// --------------------------------------------------------- shifted sampler

std::vector<process::MosGeometry> two_devices() {
    return {{"m1", false, 20e-6, 1e-6}, {"m2", true, 30e-6, 2e-6}};
}

TEST(ShiftedSampler, ZeroShiftBitIdenticalToPlainSample) {
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    const auto devices = two_devices();

    Rng plain_rng(42), shifted_rng(42);
    const process::Realization plain = sampler.sample(plain_rng, devices);
    const process::ShiftedDraw draw =
        sampler.sample_shifted(shifted_rng, devices, process::SampleShift{}, true);

    EXPECT_EQ(draw.log_weight, 0.0); // exactly zero, not approximately
    EXPECT_EQ(plain.global.dvth_n, draw.realization.global.dvth_n);
    EXPECT_EQ(plain.global.dvth_p, draw.realization.global.dvth_p);
    EXPECT_EQ(plain.global.kp_scale_n, draw.realization.global.kp_scale_n);
    EXPECT_EQ(plain.global.kp_scale_p, draw.realization.global.kp_scale_p);
    EXPECT_EQ(plain.global.cox_scale, draw.realization.global.cox_scale);
    for (const auto& dev : devices) {
        const auto& a = plain.local.at(dev.name);
        const auto& b = draw.realization.local.at(dev.name);
        EXPECT_EQ(a.dvth, b.dvth);
        EXPECT_EQ(a.kp_scale, b.kp_scale);
    }
    // Stream-consumption parity: the next draw must match too.
    EXPECT_EQ(plain_rng.uniform01(), shifted_rng.uniform01());
    // u record has the documented dimension.
    EXPECT_EQ(draw.u.size(), process::SampleShift::dimension(devices.size()));
}

TEST(ShiftedSampler, ShiftMovesTheRealizationMean) {
    const process::VariationSpec spec = process::VariationSpec::c35();
    const process::ProcessSampler sampler(process::ProcessCard::c35(), spec);
    process::SampleShift shift;
    shift.mu.assign(process::SampleShift::dimension(0), 0.0);
    shift.mu[0] = 2.0; // dvth_n global, in sigma units

    Rng rng(7);
    double mean = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        mean += sampler.sample_shifted(rng, {}, shift).realization.global.dvth_n;
    mean /= n;
    EXPECT_NEAR(mean, 2.0 * spec.global.sigma_vth_n,
                4.0 * spec.global.sigma_vth_n / std::sqrt(double(n)));
}

TEST(ShiftedSampler, LikelihoodRatioIntegratesToOne) {
    // E_q[w] = 1 for any proposal q absolutely continuous w.r.t. p.
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    process::SampleShift shift;
    shift.mu = {1.0, -0.5, 0.0, 0.8, -1.0};
    shift.scale = 1.5;

    Rng rng(11);
    double w_sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        w_sum += std::exp(sampler.sample_shifted(rng, {}, shift).log_weight);
    EXPECT_NEAR(w_sum / n, 1.0, 0.05);
}

TEST(ShiftedSampler, RejectsBadShift) {
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    Rng rng(1);
    process::SampleShift wrong_dim;
    wrong_dim.mu = {1.0, 2.0}; // device-free spaces have 5 dims
    EXPECT_THROW((void)sampler.sample_shifted(rng, {}, wrong_dim),
                 InvalidInputError);
    process::SampleShift bad_scale;
    bad_scale.scale = 0.0;
    EXPECT_THROW((void)sampler.sample_shifted(rng, {}, bad_scale),
                 InvalidInputError);
}

// ------------------------------------------------------- mixture proposals

TEST(MixtureSampler, OneComponentZeroShiftBitIdenticalToPlainSample) {
    // The acceptance pin: a one-component inactive mixture must consume the
    // RNG stream exactly like sample() (no component-selection draw) and
    // produce bit-identical realisations with log_weight exactly 0.
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    const auto devices = two_devices();

    for (const process::ProposalMixture& mix :
         {process::ProposalMixture{}, process::ProposalMixture::nominal()}) {
        Rng plain_rng(42), mix_rng(42);
        const process::Realization plain = sampler.sample(plain_rng, devices);
        const process::ShiftedDraw draw =
            sampler.sample_mixture(mix_rng, devices, mix, true);
        EXPECT_EQ(draw.log_weight, 0.0); // exactly zero, not approximately
        EXPECT_EQ(draw.component, 0u);
        EXPECT_EQ(plain.global.dvth_n, draw.realization.global.dvth_n);
        EXPECT_EQ(plain.global.cox_scale, draw.realization.global.cox_scale);
        for (const auto& dev : devices) {
            EXPECT_EQ(plain.local.at(dev.name).dvth,
                      draw.realization.local.at(dev.name).dvth);
            EXPECT_EQ(plain.local.at(dev.name).kp_scale,
                      draw.realization.local.at(dev.name).kp_scale);
        }
        // Stream-consumption parity: the next draw must match too.
        EXPECT_EQ(plain_rng.uniform01(), mix_rng.uniform01());
        EXPECT_EQ(draw.u.size(), process::SampleShift::dimension(devices.size()));
    }
}

TEST(MixtureSampler, OneShiftedComponentBitIdenticalToSampleShifted) {
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    process::SampleShift shift;
    shift.mu = {1.0, -0.5, 0.0, 0.8, -1.0};
    shift.scale = 1.3;

    Rng a(7), b(7);
    const process::ShiftedDraw single = sampler.sample_shifted(a, {}, shift, true);
    const process::ShiftedDraw mixed = sampler.sample_mixture(
        b, {}, process::ProposalMixture::single(shift), true);
    EXPECT_EQ(single.log_weight, mixed.log_weight);
    EXPECT_EQ(single.realization.global.dvth_n, mixed.realization.global.dvth_n);
    EXPECT_EQ(single.realization.global.cox_scale,
              mixed.realization.global.cox_scale);
    ASSERT_EQ(single.u.size(), mixed.u.size());
    for (std::size_t i = 0; i < single.u.size(); ++i)
        EXPECT_EQ(single.u[i], mixed.u[i]);
    EXPECT_EQ(a.uniform01(), b.uniform01());
}

TEST(MixtureSampler, LogWeightMatchesBruteForceDensity) {
    // Two-component defensive mixture over the 5 global dims: the sampled
    // log weight must equal log phi(u) - log q_mix(u) evaluated by brute
    // force from the recorded standardized coordinates.
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    process::ProposalMixture mix;
    process::ProposalComponent nominal;
    nominal.weight = 0.25;
    mix.components.push_back(nominal);
    process::ProposalComponent shifted;
    shifted.mu = {2.0, 0.0, -1.0, 0.5, 0.0};
    shifted.scale = 1.2;
    shifted.weight = 0.75;
    mix.components.push_back(shifted);

    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        const process::ShiftedDraw draw = sampler.sample_mixture(rng, {}, mix, true);
        ASSERT_EQ(draw.u.size(), 5u);
        // Brute force: log phi(u) - log sum_k p_k prod_i phi((u-mu_k)/s)/s,
        // constants cancelling (all sigmas of the global dims are > 0).
        double log_p = 0.0;
        std::vector<double> log_q = {std::log(0.25), std::log(0.75)};
        for (std::size_t d = 0; d < 5; ++d) {
            log_p += -0.5 * draw.u[d] * draw.u[d];
            log_q[0] += -0.5 * draw.u[d] * draw.u[d];
            const double t = (draw.u[d] - shifted.mu[d]) / shifted.scale;
            log_q[1] += -0.5 * t * t - std::log(shifted.scale);
        }
        const double peak = std::max(log_q[0], log_q[1]);
        const double expected =
            log_p - (peak + std::log(std::exp(log_q[0] - peak) +
                                     std::exp(log_q[1] - peak)));
        EXPECT_NEAR(draw.log_weight, expected, 1e-10);
        EXPECT_NEAR(draw.log_weight, mix.log_weight_of(draw.u), 1e-10);
    }
}

TEST(MixtureSampler, MixtureLikelihoodRatioIntegratesToOne) {
    // E_q[w] = 1 for any mixture proposal absolutely continuous w.r.t. the
    // nominal density - the defensive nominal component keeps the weights
    // bounded, so the estimate converges fast.
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    process::ProposalMixture mix;
    process::ProposalComponent nominal;
    nominal.weight = 0.2;
    mix.components.push_back(nominal);
    for (double sign : {1.0, -1.0}) {
        process::ProposalComponent comp;
        comp.mu = {2.0 * sign, 0.0, 0.0, -1.0 * sign, 0.0};
        comp.weight = 0.4;
        mix.components.push_back(comp);
    }

    Rng rng(11);
    double w_sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        w_sum += std::exp(sampler.sample_mixture(rng, {}, mix).log_weight);
    EXPECT_NEAR(w_sum / n, 1.0, 0.05);
}

TEST(MixtureSampler, NominalDrawMixtureUMatchesGeneralFormula) {
    // With no proposal component, or one nominal component, draw_mixture_u
    // skips the log-weight accumulation; u and log_w (exactly +0) must
    // equal the general single-component formula's, here reached through an
    // explicit all-zero mean.
    const std::size_t dim = 64;
    process::ProposalMixture general = process::ProposalMixture::nominal();
    general.components[0].mu.assign(dim, 0.0);
    for (const process::ProposalMixture& nominal :
         {process::ProposalMixture{}, process::ProposalMixture::nominal()}) {
        for (std::uint64_t seed = 0; seed < 200; ++seed) {
            Rng fast_rng(seed), general_rng(seed);
            double fast_w = 1.0, general_w = 1.0;
            std::vector<double> fast(dim), want(dim);
            draw_mixture_u(fast_rng, nominal, fast, fast_w);
            draw_mixture_u(general_rng, general, want, general_w);
            ASSERT_EQ(fast, want) << "seed " << seed;
            ASSERT_EQ(fast_w, 0.0);
            ASSERT_FALSE(std::signbit(fast_w));
            ASSERT_EQ(general_w, 0.0);
            ASSERT_FALSE(std::signbit(general_w));
            ASSERT_EQ(fast_rng.engine()(), general_rng.engine()());
        }
    }
}

TEST(MixtureSampler, ValidatesComponents) {
    const process::ProcessSampler sampler(process::ProcessCard::c35(),
                                          process::VariationSpec::c35());
    Rng rng(1);
    process::ProposalMixture bad_weight = process::ProposalMixture::nominal();
    bad_weight.components[0].weight = 0.0;
    EXPECT_THROW((void)sampler.sample_mixture(rng, {}, bad_weight),
                 InvalidInputError);
    process::ProposalMixture bad_scale = process::ProposalMixture::nominal();
    bad_scale.components[0].scale = -1.0;
    EXPECT_THROW((void)sampler.sample_mixture(rng, {}, bad_scale),
                 InvalidInputError);
    process::ProposalMixture bad_dim = process::ProposalMixture::nominal();
    bad_dim.components[0].mu = {1.0, 2.0}; // device-free spaces have 5 dims
    EXPECT_THROW((void)sampler.sample_mixture(rng, {}, bad_dim),
                 InvalidInputError);
    process::ProposalMixture empty;
    EXPECT_THROW((void)empty.pick_component(0.5), InvalidInputError);
}

// ------------------------------------------------------ weighted estimator

TEST(WeightedYield, UnityWeightsReduceToWilsonBitIdentically) {
    const std::vector<bool> flags = {true, true, false, true, true,
                                     true, false, true, true, true};
    const mc::YieldEstimate plain = mc::yield_from_flags(flags);
    for (const auto& log_weights :
         {std::vector<double>{}, std::vector<double>(flags.size(), 0.0)}) {
        const yield::WeightedYieldEstimate w =
            yield::weighted_yield_from_flags(flags, log_weights);
        EXPECT_FALSE(w.weighted);
        EXPECT_EQ(w.samples, plain.samples);
        EXPECT_EQ(w.passes, plain.passes);
        EXPECT_EQ(w.yield, plain.yield);
        EXPECT_EQ(w.ci_low, plain.ci_low);
        EXPECT_EQ(w.ci_high, plain.ci_high);
        EXPECT_EQ(w.ess, double(flags.size()));
    }
}

TEST(WeightedYield, HandComputedWeights) {
    // Four samples, fail-side weights {0.5, 0.5} (the pass weights never
    // enter): phat_fail = (0.5 + 0.5) / 4 = 0.25, yield = 0.75,
    // fail-side ESS = 1^2 / 0.5 = 2, max share = 0.5.
    const yield::WeightedYieldEstimate e = yield::weighted_yield_from_flags(
        {false, false, true, true},
        {std::log(0.5), std::log(0.5), std::log(3.0), 0.0});
    EXPECT_TRUE(e.weighted);
    EXPECT_EQ(e.samples, 4u);
    EXPECT_EQ(e.passes, 2u);
    EXPECT_NEAR(e.yield, 0.75, 1e-12);
    EXPECT_NEAR(e.ess, 2.0, 1e-12);
    EXPECT_NEAR(e.max_weight_share, 0.5, 1e-12);
    EXPECT_GE(e.ci_low, 0.0);
    EXPECT_LE(e.ci_high, 1.0);
    EXPECT_LT(e.ci_low, e.yield);
    EXPECT_GT(e.ci_high, e.yield);
}

TEST(WeightedYield, EstimatesGaussianTailProbability) {
    // P(Z > 3) = 1.3499e-3, estimated with a mean-3 proposal: the classic
    // importance-sampling correctness check.
    const double p_true = 1.349898e-3;
    Rng rng(17);
    const double m = 3.0;
    std::vector<bool> pass;
    std::vector<double> log_w;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double z = rng.gauss();
        const double u = m + z;
        pass.push_back(!(u > 3.0)); // "yield" = 1 - tail probability
        log_w.push_back(0.5 * z * z - 0.5 * u * u);
    }
    const yield::WeightedYieldEstimate e =
        yield::weighted_yield_from_flags(pass, log_w);
    EXPECT_TRUE(e.weighted);
    EXPECT_NEAR(1.0 - e.yield, p_true, 0.1 * p_true);
    // The weighted CI must cover the truth and be far tighter than plain
    // MC's at the same sample count (~2 orders of magnitude in variance).
    EXPECT_LE(e.ci_low, 1.0 - p_true + 1e-12);
    EXPECT_GE(e.ci_high, 1.0 - p_true - 1e-12);
    const double plain_hw = 1.96 * std::sqrt(p_true * (1 - p_true) / n);
    EXPECT_LT(e.half_width(), plain_hw / 3.0);
}

TEST(WeightedYield, LargeShiftDegradesEss) {
    // An overdone shift concentrates the weight on few samples: ESS and the
    // max-weight share must flag it.
    Rng rng(23);
    const double m = 6.0;
    std::vector<bool> pass;
    std::vector<double> log_w;
    for (int i = 0; i < 2000; ++i) {
        const double z = rng.gauss();
        const double u = m + z;
        pass.push_back(!(u > 3.0));
        log_w.push_back(0.5 * z * z - 0.5 * u * u);
    }
    const yield::WeightedYieldEstimate e =
        yield::weighted_yield_from_flags(pass, log_w);
    EXPECT_LT(e.ess, 0.2 * 2000.0);
    EXPECT_GT(e.max_weight_share, 0.01);
}

TEST(WeightedYield, ZeroObservedFailuresKeepsNonDegenerateCi) {
    // Regression: an active shift with no observed failures used to report
    // the point interval [1, 1] - certifying exactly 100 % yield on absence
    // of evidence - which let the sequential driver early-stop instantly.
    // Contract: fall back to the clean-sweep Wilson bound (conservative
    // under a failure-directed proposal) and flag ESS = 0.
    const yield::WeightedYieldEstimate e = yield::weighted_yield_from_flags(
        std::vector<bool>(200, true), std::vector<double>(200, 0.1));
    EXPECT_TRUE(e.weighted);
    EXPECT_EQ(e.yield, 1.0);
    EXPECT_EQ(e.ci_high, 1.0);
    EXPECT_LT(e.ci_low, 1.0); // never a point interval
    EXPECT_GT(e.ci_low, 0.97);
    EXPECT_GT(e.half_width(), 0.0);
    EXPECT_EQ(e.ess, 0.0);
    EXPECT_EQ(e.max_weight_share, 0.0);
}

TEST(WeightedYield, SingleObservedFailureKeepsConservativeCi) {
    // Regression: with exactly one observed failure the delta-method
    // variance rests on a single nonzero term - a lucky small-weight
    // failure used to certify a spuriously tight CI. Contract: until >= 2
    // fail-side samples are seen the interval is widened to
    // [clamp(yield - hw), 1] with hw at least the one-failure Wilson
    // half-width, mirroring the zero-failure Wilson fallback.
    const std::size_t n = 400;
    std::vector<bool> pass(n, true);
    pass[7] = false;
    std::vector<double> log_w(n, 0.0);
    log_w[7] = std::log(1e-3); // tiny weight: delta hw would be ~5e-6
    for (std::size_t i = 0; i < n; ++i)
        if (pass[i]) log_w[i] = 0.01;
    const yield::WeightedYieldEstimate e =
        yield::weighted_yield_from_flags(pass, log_w);
    EXPECT_TRUE(e.weighted);
    EXPECT_EQ(e.samples - e.passes, 1u);
    EXPECT_EQ(e.ci_high, 1.0); // upper edge stays open
    // The downside margin is at least the one-failure Wilson half-width.
    const auto [wlo, whi] = mc::wilson_interval(n - 1, n);
    EXPECT_GE(e.yield - e.ci_low + 1e-15, 0.5 * (whi - wlo));
    EXPECT_LT(e.ci_low, e.yield);

    // A second failure restores the delta-method interval (tight again).
    pass[13] = false;
    log_w[13] = std::log(1e-3);
    const yield::WeightedYieldEstimate e2 =
        yield::weighted_yield_from_flags(pass, log_w);
    EXPECT_EQ(e2.samples - e2.passes, 2u);
    EXPECT_LT(e2.half_width(), 0.5 * (whi - wlo));
}

TEST(WeightedYield, CombineStagesPoolsMomentsAcrossProposals) {
    // Two stages with weighted failures: the combination must pool the
    // exact fail-side moments (sample-count weighting), matching a direct
    // estimate over the concatenated data computed under per-stage weights.
    const std::vector<bool> f1 = {false, true, true, false};
    const std::vector<double> w1 = {std::log(0.5), 0.0, 0.2, std::log(0.25)};
    const std::vector<bool> f2 = {true, false, true, true, false, true};
    const std::vector<double> w2 = {0.0, std::log(0.75), 0.1,
                                    0.0, std::log(0.4), 0.3};
    const auto s1 = yield::weighted_yield_from_flags(f1, w1);
    const auto s2 = yield::weighted_yield_from_flags(f2, w2);
    const auto combined = yield::combine_stage_estimates({s1, s2});

    std::vector<bool> all_f = f1;
    all_f.insert(all_f.end(), f2.begin(), f2.end());
    std::vector<double> all_w = w1;
    all_w.insert(all_w.end(), w2.begin(), w2.end());
    const auto direct = yield::weighted_yield_from_flags(all_f, all_w);

    EXPECT_EQ(combined.samples, direct.samples);
    EXPECT_EQ(combined.passes, direct.passes);
    EXPECT_NEAR(combined.yield, direct.yield, 1e-12);
    EXPECT_NEAR(combined.ci_low, direct.ci_low, 1e-12);
    EXPECT_NEAR(combined.ci_high, direct.ci_high, 1e-12);
    EXPECT_NEAR(combined.ess, direct.ess, 1e-12);
    EXPECT_NEAR(combined.max_weight_share, direct.max_weight_share, 1e-12);
}

TEST(WeightedYield, CombineStagesEdgeCases) {
    // No stages (or only empty ones): the vacuous interval, never [0, 0].
    const auto empty = yield::combine_stage_estimates({});
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_EQ(empty.ci_low, 0.0);
    EXPECT_EQ(empty.ci_high, 1.0);

    // One live stage: returned unchanged, bit-identically.
    const auto s = yield::weighted_yield_from_flags(
        {false, true, false, true}, {std::log(0.5), 0.0, std::log(0.5), 0.2});
    const auto one = yield::combine_stage_estimates(
        {yield::weighted_yield_from_flags({}, {}), s});
    EXPECT_EQ(one.yield, s.yield);
    EXPECT_EQ(one.ci_low, s.ci_low);
    EXPECT_EQ(one.ci_high, s.ci_high);

    // All-unweighted stages: pooled Wilson, identical to concatenated
    // flags.
    const auto u1 = yield::weighted_yield_from_flags({true, false, true}, {});
    const auto u2 = yield::weighted_yield_from_flags({true, true}, {});
    const auto pooled = yield::combine_stage_estimates({u1, u2});
    const auto direct = yield::weighted_yield_from_flags(
        {true, false, true, true, true}, {});
    EXPECT_FALSE(pooled.weighted);
    EXPECT_EQ(pooled.yield, direct.yield);
    EXPECT_EQ(pooled.ci_low, direct.ci_low);
    EXPECT_EQ(pooled.ci_high, direct.ci_high);
    EXPECT_EQ(pooled.ess, direct.ess);
}

/// Fold (pass, log_weights) into FailSideMoments in chunks of 1..chunk_max
/// samples, checking the running estimate after each chunk the way the
/// sequential runner does.
yield::FailSideMoments fold_in_chunks(const std::vector<bool>& pass,
                                      const std::vector<double>& log_weights,
                                      std::size_t chunk_max, Rng& rng) {
    yield::FailSideMoments moments;
    std::size_t i = 0;
    while (i < pass.size()) {
        const std::size_t end =
            std::min(pass.size(), i + 1 + rng.index(chunk_max));
        for (; i < end; ++i)
            moments.add(pass[i], log_weights.empty() ? 0.0 : log_weights[i]);
        (void)moments.estimate();
    }
    return moments;
}

/// The folded estimate must carry the two-pass oracle's moments bit for bit
/// and equal weighted_yield_from_flags over the same samples in every field.
void expect_matches_oracle(const std::vector<bool>& pass,
                           const std::vector<double>& log_weights, Rng& rng) {
    const testsupport::ReferenceFailMoments want =
        testsupport::reference_fail_moments(pass, log_weights);
    const yield::WeightedYieldEstimate got =
        fold_in_chunks(pass, log_weights, 40, rng).estimate();
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(got.passes, want.passes);
    EXPECT_EQ(got.weighted, want.weighted);
    EXPECT_EQ(got.fail_weight_sum, want.x_sum);
    EXPECT_EQ(got.fail_weight_sq_sum, want.x2_sum);
    EXPECT_EQ(got.fail_weight_max, want.w_max);

    const yield::WeightedYieldEstimate once =
        yield::weighted_yield_from_flags(pass, log_weights);
    EXPECT_EQ(got.yield, once.yield);
    EXPECT_EQ(got.ci_low, once.ci_low);
    EXPECT_EQ(got.ci_high, once.ci_high);
    EXPECT_EQ(got.ess, once.ess);
    EXPECT_EQ(got.max_weight_share, once.max_weight_share);
    EXPECT_EQ(got.fail_weight_sum, once.fail_weight_sum);
}

TEST(FailSideMoments, ChunkedFoldMatchesTwoPassReduction) {
    Rng rng(2024);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t n = rng.index(300);
        const double fail_p = rng.uniform(0.0, 0.2);
        const bool weighted = trial % 4 != 0;
        std::vector<bool> pass(n);
        std::vector<double> log_w(weighted ? n : 0);
        for (std::size_t i = 0; i < n; ++i) {
            pass[i] = !rng.bernoulli(fail_p);
            if (weighted)
                log_w[i] = trial % 4 == 1 ? rng.gauss(-3.0, 2.0) : 0.0;
        }
        if (weighted && n > 0 && trial % 4 != 1) log_w[rng.index(n)] = 0.25;
        expect_matches_oracle(pass, log_w, rng);
    }
}

TEST(FailSideMoments, ZeroAndNegativeZeroLogWeightsAreUnweighted) {
    Rng rng(5);
    const std::vector<bool> pass = {true, false, true, true, false, true};
    for (double zero : {0.0, -0.0}) {
        const std::vector<double> log_w(pass.size(), zero);
        expect_matches_oracle(pass, log_w, rng);
        const yield::WeightedYieldEstimate e =
            fold_in_chunks(pass, log_w, 3, rng).estimate();
        const mc::YieldEstimate plain = mc::yield_from_flags(pass);
        EXPECT_FALSE(e.weighted);
        EXPECT_EQ(e.yield, plain.yield);
        EXPECT_EQ(e.ci_low, plain.ci_low);
        EXPECT_EQ(e.ci_high, plain.ci_high);
    }
    // No sample at all: the vacuous interval.
    const yield::WeightedYieldEstimate empty =
        yield::FailSideMoments{}.estimate();
    EXPECT_EQ(empty.samples, 0u);
    EXPECT_EQ(empty.ci_low, 0.0);
    EXPECT_EQ(empty.ci_high, 1.0);
}

TEST(FailSideMoments, ZeroOneAndTwoFailures) {
    // The CI fallbacks switch on the failure count; each must come out of
    // the chunked fold exactly as out of the two-pass reduction.
    Rng rng(9);
    for (std::size_t fails = 0; fails <= 2; ++fails) {
        std::vector<bool> pass(200, true);
        std::vector<double> log_w(200, 0.05);
        for (std::size_t k = 0; k < fails; ++k) {
            pass[17 + 50 * k] = false;
            log_w[17 + 50 * k] = std::log(1e-3);
        }
        expect_matches_oracle(pass, log_w, rng);
        EXPECT_EQ(yield::weighted_yield_from_flags(pass, log_w).samples -
                      yield::weighted_yield_from_flags(pass, log_w).passes,
                  fails);
    }
}

TEST(FailSideMoments, ThrowsLikeTheTwoPassReduction) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
        for (bool pass : {true, false}) {
            yield::FailSideMoments moments;
            moments.add(true, 0.5);
            EXPECT_THROW(moments.add(pass, bad), InvalidInputError);
            const std::vector<bool> flags = {true, pass};
            const std::vector<double> lw = {0.5, bad};
            EXPECT_THROW((void)testsupport::reference_fail_moments(flags, lw),
                         InvalidInputError);
        }
    }
    // exp(710) overflows: the weighted fail-side sum is not finite.
    const std::vector<bool> pass = {false, true, false};
    const std::vector<double> log_w = {710.0, 0.0, 1.0};
    yield::FailSideMoments moments;
    for (std::size_t i = 0; i < pass.size(); ++i)
        moments.add(pass[i], log_w[i]);
    EXPECT_THROW((void)moments.estimate(), NumericalError);
    EXPECT_THROW((void)testsupport::reference_fail_moments(pass, log_w),
                 NumericalError);
    EXPECT_THROW((void)yield::weighted_yield_from_flags(pass, log_w),
                 NumericalError);
}

TEST(WeightedYield, RejectsBadInput) {
    EXPECT_THROW((void)yield::weighted_yield_from_flags({true}, {0.0, 0.0}),
                 InvalidInputError);
    EXPECT_THROW((void)yield::weighted_yield_from_flags(
                     {true}, {std::numeric_limits<double>::quiet_NaN()}),
                 InvalidInputError);
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("g", 0.0)};
    EXPECT_THROW(
        (void)yield::estimate_weighted_yield({{1.0, 0.0, 7.0}}, specs),
        InvalidInputError);
}

TEST(WeightedYield, NanPerformanceFailsTheSample) {
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("g", 0.0)};
    constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();
    const yield::WeightedYieldEstimate e =
        yield::estimate_weighted_yield({{1.0, 0.0}, {nan_v, 0.0}}, specs);
    EXPECT_EQ(e.passes, 1u);
    EXPECT_EQ(e.samples, 2u);
}

// -------------------------------------------------------------- shift fit

TEST(ShiftFit, RecoversFailureCenterOfGravity) {
    // One spec over column 0, dimension 2: failures sit around u = (2, -1).
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 0.0)};
    eval::RowBlock rows;
    // Passing samples scattered near the origin (u should not matter).
    rows.push_back({1.0, 0.0, 0.3, 0.2});
    rows.push_back({2.0, 0.0, -0.4, 0.1});
    // Failing samples.
    rows.push_back({-1.0, 0.0, 1.8, -0.9});
    rows.push_back({-2.0, 0.0, 2.2, -1.1});
    const yield::ShiftFit fit = yield::fit_shift(rows, specs, 2);
    ASSERT_EQ(fit.shift.mu.size(), 2u);
    EXPECT_NEAR(fit.shift.mu[0], 2.0, 1e-12);
    EXPECT_NEAR(fit.shift.mu[1], -1.0, 1e-12);
    EXPECT_EQ(fit.pilot_failures, 2u);
    EXPECT_EQ(fit.spec_failures[0], 2u);
}

TEST(ShiftFit, PerSpecCentersAreClampedAndAlwaysWellDefined) {
    // Regression (two bugs): per-spec components used to escape the
    // 4-sigma norm clamp (only the combined shift was clamped - but each
    // component is a proposal mean in the defensive mixture), and specs
    // that never failed left *empty* mu vectors callers could not index.
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("a", 0.0),
                                         mc::Spec::at_most("b", 10.0),
                                         mc::Spec::at_least("c", -1e9)};
    // Row arity: 3 specs + 1 log weight + 2 dims = 6.
    eval::RowBlock rows;
    rows.push_back({-1.0, 0.0, 0.0, 0.0, 8.0, 0.0}); // fails spec 0, u = (8, 0)
    rows.push_back({1.0, 20.0, 0.0, 0.0, 0.0, 8.0}); // fails spec 1, u = (0, 8)
    rows.push_back({1.0, 0.0, 0.0, 0.0, 0.1, -0.1}); // passes all
    const yield::ShiftFit fit = yield::fit_shift(rows, specs, 2);
    ASSERT_EQ(fit.per_spec.size(), 3u);
    // Each per-spec center is clamped to the 4-sigma norm on its own.
    EXPECT_NEAR(fit.per_spec[0].mu[0], 4.0, 1e-12);
    EXPECT_NEAR(fit.per_spec[0].norm(), 4.0, 1e-12);
    EXPECT_NEAR(fit.per_spec[1].mu[1], 4.0, 1e-12);
    // The never-failing spec has a well-defined all-zero mu of full size.
    ASSERT_EQ(fit.per_spec[2].mu.size(), 2u);
    EXPECT_EQ(fit.per_spec[2].mu[0], 0.0);
    EXPECT_EQ(fit.per_spec[2].mu[1], 0.0);
    EXPECT_FALSE(fit.per_spec[2].active());
    // Combined shift averages the *clamped* centers: (2, 2), inside the
    // clamp.
    EXPECT_NEAR(fit.shift.mu[0], 2.0, 1e-12);
    EXPECT_NEAR(fit.shift.mu[1], 2.0, 1e-12);
    EXPECT_LE(fit.shift.norm(), 4.0 + 1e-12);
    // Defensive mixture: nominal + one component per *failing* spec.
    ASSERT_EQ(fit.mixture.components.size(), 3u);
    EXPECT_TRUE(fit.mixture.components[0].mu.empty()); // nominal
    EXPECT_NEAR(fit.mixture.components[0].weight, 0.1, 1e-12);
    EXPECT_NEAR(fit.mixture.components[1].mu[0], 4.0, 1e-12);
    EXPECT_NEAR(fit.mixture.components[1].weight, 0.45, 1e-12);
    EXPECT_NEAR(fit.mixture.components[2].mu[1], 4.0, 1e-12);
    EXPECT_NEAR(fit.mixture.components[2].weight, 0.45, 1e-12);
}

TEST(ShiftFit, RefitIsImportanceWeighted) {
    // Two failing records for one spec with log weights log(3) and log(1):
    // the CE center of gravity is the weight-3 record's pull, (3*1 + 1*5)/4
    // = 2 - not the unweighted midpoint 3.
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 0.0)};
    eval::RowBlock rows;
    rows.push_back({-1.0, std::log(3.0), 1.0});
    rows.push_back({-1.0, 0.0, 5.0});
    rows.push_back({1.0, std::log(9.0), -4.0}); // passes: ignored entirely
    const yield::ShiftFit unweighted = yield::fit_shift(rows, specs, 1);
    const yield::ShiftFit weighted =
        yield::refit_shift(rows, specs, 1, false);
    EXPECT_NEAR(unweighted.shift.mu[0], 3.0, 1e-12);
    EXPECT_NEAR(weighted.shift.mu[0], 2.0, 1e-12);
    EXPECT_EQ(weighted.pilot_failures, 2u);
    // Non-finite log weights are rejected on the weighted path.
    const eval::RowBlock bad = {
        {-1.0, std::numeric_limits<double>::quiet_NaN(), 1.0}};
    EXPECT_THROW((void)yield::refit_shift(bad, specs, 1, false),
                 InvalidInputError);
}

TEST(ShiftFit, NoFailuresKeepsZeroShift) {
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 0.0)};
    const yield::ShiftFit fit =
        yield::fit_shift({{1.0, 0.0, 0.5}, {2.0, 0.0, -0.5}}, specs, 1);
    EXPECT_TRUE(fit.shift.mu.empty());
    EXPECT_FALSE(fit.shift.active());
    EXPECT_EQ(fit.pilot_failures, 0u);
}

// ------------------------------------------------------ sequential driver

TEST(SequentialYield, ZeroShiftBitIdenticalToPlainMonteCarlo) {
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 45.0)};
    const std::size_t n = 96;

    // Reference: the plain chunked MC runner + the plain estimator.
    eval::Engine plain_engine = make_engine();
    Rng plain_rng(31);
    mc::McConfig cfg;
    cfg.samples = n;
    const mc::McResult plain = mc::run_monte_carlo(
        plain_engine, cfg, plain_rng,
        mc::ChunkSampleFn([](std::span<const std::size_t>, std::span<Rng> rngs) {
            eval::RowBlock rows(1);
            for (Rng& rng : rngs) rows.push_back({50.0 + 2.0 * rng.gauss()});
            return rows;
        }));
    const mc::YieldEstimate plain_yield = mc::estimate_yield(plain.rows, specs);

    // The sequential driver with the pilot disabled (zero shift), one chunk.
    eval::Engine engine = make_engine();
    yield::SequentialConfig config;
    config.pilot_samples = 0;
    config.chunk_samples = n;
    config.max_samples = n;
    config.min_samples = n;
    yield::SequentialYieldRunner runner(engine, config, specs,
                                        synthetic_factory(50.0, 2.0), 1, Rng(31));
    const yield::SequentialYieldResult result = runner.run();

    EXPECT_FALSE(result.estimate.weighted);
    EXPECT_EQ(result.samples_used, n);
    EXPECT_EQ(result.estimate.samples, plain_yield.samples);
    EXPECT_EQ(result.estimate.passes, plain_yield.passes);
    EXPECT_EQ(result.estimate.yield, plain_yield.yield);
    EXPECT_EQ(result.estimate.ci_low, plain_yield.ci_low);
    EXPECT_EQ(result.estimate.ci_high, plain_yield.ci_high);
}

TEST(SequentialYield, EarlyStopDeterministicAcrossInflightWindows) {
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 48.0)};
    auto run_with_inflight = [&](std::size_t inflight) {
        eval::Engine engine = make_engine();
        yield::SequentialConfig config;
        config.pilot_samples = 64;
        config.pilot_scale = 1.5;
        config.chunk_samples = 64;
        config.max_samples = 8192;
        config.min_samples = 128;
        config.target_half_width = 0.04;
        config.inflight = inflight;
        yield::SequentialYieldRunner runner(
            engine, config, specs, synthetic_factory(50.0, 2.0), 1, Rng(77));
        return runner.run();
    };
    const auto a = run_with_inflight(1);
    const auto b = run_with_inflight(4);

    EXPECT_TRUE(a.reached_target);
    EXPECT_LT(a.samples_used, 8192u);
    // Identical retired prefix regardless of the streaming window.
    EXPECT_EQ(a.samples_used, b.samples_used);
    EXPECT_EQ(a.estimate.yield, b.estimate.yield);
    EXPECT_EQ(a.estimate.ci_low, b.estimate.ci_low);
    EXPECT_EQ(a.estimate.ci_high, b.estimate.ci_high);
    EXPECT_EQ(a.trajectory.size(), b.trajectory.size());
    // The wider window may have drained overshoot, never folded it.
    EXPECT_EQ(a.discarded_samples, 0u);
}

TEST(SequentialYield, ImportanceSamplingBeatsPlainMcOnRareSpec) {
    // Rare failure: value = u fails when u > 3 (p = 1.35e-3). Both drivers
    // run to the same CI target; IS must get there in far fewer samples.
    const std::vector<mc::Spec> specs = {mc::Spec::at_most("v", 3.0)};
    const double target = 5e-4;
    const double p_true = 1.349898e-3;

    yield::SequentialConfig config;
    config.chunk_samples = 128;
    config.max_samples = 60000;
    config.min_samples = 256;
    config.target_half_width = target;

    eval::Engine plain_engine = make_engine();
    yield::SequentialConfig plain_config = config;
    plain_config.pilot_samples = 0; // zero shift: plain sequential MC
    yield::SequentialYieldRunner plain_runner(
        plain_engine, plain_config, specs, synthetic_factory(0.0, 1.0), 1, Rng(5));
    const auto plain = plain_runner.run();

    eval::Engine is_engine = make_engine();
    yield::SequentialConfig is_config = config;
    is_config.pilot_samples = 256;
    is_config.pilot_scale = 2.5;
    yield::SequentialYieldRunner is_runner(
        is_engine, is_config, specs, synthetic_factory(0.0, 1.0), 1, Rng(5));
    const auto is = is_runner.run();

    ASSERT_TRUE(plain.reached_target);
    ASSERT_TRUE(is.reached_target);
    EXPECT_TRUE(is.estimate.weighted);
    EXPECT_GT(is.shift.norm(), 1.0); // the pilot found the failure region
    // >= 3x sample reduction (the bench gates the same on the OTA).
    EXPECT_LE(3 * (is.samples_used + is.pilot_samples), plain.samples_used);
    // And the estimate is actually right.
    EXPECT_NEAR(1.0 - is.estimate.yield, p_true, 3.0 * target);
    EXPECT_GT(is.estimate.ess, 10.0);
}

TEST(SequentialYield, MultiPointDriverDeterministicAndNeverFoldsPastDone) {
    // The multi-point contract: deterministic across reruns, and stop
    // decisions never fold a window's overshoot (regression: retire_chunk
    // used to be called unconditionally past done()).
    auto run_once = [](std::size_t inflight) {
        std::vector<yield::YieldPoint> points(2);
        for (std::size_t i = 0; i < points.size(); ++i) {
            points[i].specs = {mc::Spec::at_least("v", 46.0 + 2.0 * double(i))};
            points[i].factory = synthetic_factory(50.0, 2.0);
            points[i].dimension = 1;
        }
        yield::SequentialConfig config;
        config.pilot_samples = 32;
        config.chunk_samples = 32;
        config.max_samples = 8192;
        config.min_samples = 64;
        config.target_half_width = 0.03;
        config.inflight = inflight;
        eval::Engine engine = make_engine();
        return yield::run_yield_points(engine, config, points, Rng(41));
    };
    const auto a = run_once(4);
    const auto b = run_once(4);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].samples_used, b[i].samples_used);
        EXPECT_EQ(a[i].estimate.yield, b[i].estimate.yield);
        EXPECT_EQ(a[i].estimate.ci_low, b[i].estimate.ci_low);
        EXPECT_EQ(a[i].estimate.ci_high, b[i].estimate.ci_high);
        EXPECT_TRUE(a[i].reached_target);
        EXPECT_LT(a[i].samples_used, 8192u);
        // No window chunk may be folded past the stop: the folded samples
        // stay a multiple of the chunk size reached at or before done.
        EXPECT_EQ(a[i].samples_used % 32, 0u);
    }
}

void expect_same_estimate(const yield::WeightedYieldEstimate& a,
                          const yield::WeightedYieldEstimate& b) {
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.passes, b.passes);
    EXPECT_EQ(a.yield, b.yield);
    EXPECT_EQ(a.ci_low, b.ci_low);
    EXPECT_EQ(a.ci_high, b.ci_high);
    EXPECT_EQ(a.ess, b.ess);
    EXPECT_EQ(a.max_weight_share, b.max_weight_share);
    EXPECT_EQ(a.weighted, b.weighted);
    EXPECT_EQ(a.fail_weight_sum, b.fail_weight_sum);
    EXPECT_EQ(a.fail_weight_sq_sum, b.fail_weight_sq_sum);
    EXPECT_EQ(a.fail_weight_max, b.fail_weight_max);
}

TEST(SequentialYield, MultiPointDriverMatchesSingleRunsBitForBit) {
    // The driver contract: point i of run_yield_points is exactly the
    // single-point run on rng.child(i + 1), for any inflight window - with
    // CE refits (which rewind past drained chunks) and early stop (which
    // drains the window) both in play.
    std::vector<yield::YieldPoint> points(3);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].specs = {mc::Spec::at_most("v", 3.0)};
        points[i].factory = synthetic_factory(0.1 * double(i), 1.0);
        points[i].dimension = 1;
    }
    yield::SequentialConfig config;
    config.pilot_samples = 256;
    config.pilot_scale = 2.5;
    config.chunk_samples = 64;
    config.max_samples = 4096;
    config.min_samples = 256;
    config.target_half_width = 5e-4;
    config.refine_after_chunks = 2;
    config.max_refits = 4;
    config.refit_min_failures = 4;
    const Rng rng(2029);

    for (std::size_t inflight : {1u, 2u, 4u}) {
        SCOPED_TRACE(inflight);
        config.inflight = inflight;
        eval::Engine engine = make_engine();
        const auto multi = yield::run_yield_points(engine, config, points, rng);
        ASSERT_EQ(multi.size(), points.size());
        std::size_t refits = 0;
        std::size_t drained = 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(i);
            yield::SequentialYieldRunner runner(
                engine, config, points[i].specs, points[i].factory,
                points[i].dimension, rng.child(i + 1));
            const yield::SequentialYieldResult single = runner.run();
            const yield::SequentialYieldResult& m = multi[i];
            expect_same_estimate(m.estimate, single.estimate);
            expect_same_estimate(m.pilot, single.pilot);
            ASSERT_EQ(m.stage_estimates.size(), single.stage_estimates.size());
            for (std::size_t s = 0; s < m.stage_estimates.size(); ++s)
                expect_same_estimate(m.stage_estimates[s],
                                     single.stage_estimates[s]);
            ASSERT_EQ(m.proposal.components.size(),
                      single.proposal.components.size());
            for (std::size_t c = 0; c < m.proposal.components.size(); ++c) {
                EXPECT_EQ(m.proposal.components[c].mu,
                          single.proposal.components[c].mu);
                EXPECT_EQ(m.proposal.components[c].sigma,
                          single.proposal.components[c].sigma);
                EXPECT_EQ(m.proposal.components[c].weight,
                          single.proposal.components[c].weight);
            }
            EXPECT_EQ(m.shift.mu, single.shift.mu);
            EXPECT_EQ(m.refinements, single.refinements);
            EXPECT_EQ(m.shift_pilot_failures, single.shift_pilot_failures);
            EXPECT_EQ(m.samples_used, single.samples_used);
            EXPECT_EQ(m.pilot_samples, single.pilot_samples);
            EXPECT_EQ(m.reached_target, single.reached_target);
            EXPECT_EQ(m.trajectory, single.trajectory);
            EXPECT_TRUE(m.reached_target);
            refits += m.refinements;
            drained += m.discarded_samples;
        }
        EXPECT_GE(refits, points.size()); // the CE path ran on every point
        // Wider windows really drained overshoot past refits and stops.
        if (inflight > 1) {
            EXPECT_GT(drained, 0u);
        }
    }
}

TEST(SequentialYield, MixtureRecoversEssWhereSingleShiftCollapses) {
    // Bimodal two-spec problem: failures live in the disjoint regions
    // u0 > 3 and u1 > 3. The single combined shift points *between* the
    // modes (its fail-side ESS collapses on weight variance); the defensive
    // mixture covers each mode with its own component plus a nominal
    // component bounding the weights. Same seed, same budget, no early
    // stop: the mixture must deliver more effective failure observations
    // and a tighter interval, and its estimate must be right.
    const yield::Scenario bimodal = yield::make_scenario("synthetic_bimodal");
    const double p_true = 1.0 - (1.0 - 1.349898e-3) * (1.0 - 1.349898e-3);
    auto run_mode = [&](bool mixture) {
        eval::Engine engine = make_engine();
        yield::SequentialConfig config;
        config.pilot_samples = 512;
        config.pilot_scale = 2.5;
        config.chunk_samples = 256;
        config.max_samples = 4096;
        config.min_samples = 512;
        config.mixture_proposal = mixture;
        yield::SequentialYieldRunner runner(engine, config, bimodal.specs,
                                            bimodal.factory,
                                            bimodal.dimension, Rng(57));
        return runner.run();
    };
    const auto single = run_mode(false);
    const auto mixture = run_mode(true);

    EXPECT_TRUE(single.estimate.weighted);
    EXPECT_TRUE(mixture.estimate.weighted);
    EXPECT_EQ(single.samples_used, mixture.samples_used);
    ASSERT_EQ(mixture.proposal.components.size(), 3u); // nominal + 2 modes
    // ESS recovery and the tighter interval.
    EXPECT_GT(mixture.estimate.ess, 2.0 * single.estimate.ess);
    EXPECT_LT(mixture.estimate.half_width(), single.estimate.half_width());
    // And the mixture estimate is actually right (CI covers the truth).
    EXPECT_LE(mixture.estimate.ci_low, 1.0 - p_true + 1e-12);
    EXPECT_GE(mixture.estimate.ci_high, 1.0 - p_true - 1e-12);
    EXPECT_NEAR(1.0 - mixture.estimate.yield, p_true, 1e-3);
}

TEST(SequentialYield, CeRefinementDeterministicAcrossInflightWindows) {
    // The refinement extension of the window-invariance contract: a refit
    // decision depends only on the retired prefix, in-flight chunks drawn
    // from the replaced proposal are drained (never folded), and the RNG
    // rewinds to the retired prefix - so the whole multi-stage run is
    // bit-identical for any inflight window.
    const std::vector<mc::Spec> specs = {mc::Spec::at_most("v", 3.0)};
    auto run_with_inflight = [&](std::size_t inflight) {
        eval::Engine engine = make_engine();
        yield::SequentialConfig config;
        config.pilot_samples = 256;
        config.pilot_scale = 2.5;
        config.chunk_samples = 64;
        config.max_samples = 4096;
        config.min_samples = 256;
        config.target_half_width = 5e-4;
        config.inflight = inflight;
        config.refine_after_chunks = 2; // refit before the min_samples floor
        config.max_refits = 2;
        config.refit_min_failures = 4;
        yield::SequentialYieldRunner runner(
            engine, config, specs, synthetic_factory(0.0, 1.0), 1, Rng(21));
        return runner.run();
    };
    const auto a = run_with_inflight(1);
    const auto b = run_with_inflight(4);

    EXPECT_GE(a.refinements, 1u); // the CE path actually ran
    EXPECT_EQ(a.refinements, b.refinements);
    EXPECT_EQ(a.samples_used, b.samples_used);
    EXPECT_EQ(a.estimate.yield, b.estimate.yield);
    EXPECT_EQ(a.estimate.ci_low, b.estimate.ci_low);
    EXPECT_EQ(a.estimate.ci_high, b.estimate.ci_high);
    EXPECT_EQ(a.estimate.ess, b.estimate.ess);
    ASSERT_EQ(a.stage_estimates.size(), b.stage_estimates.size());
    EXPECT_EQ(a.stage_estimates.size(), a.refinements + 1);
    for (std::size_t s = 0; s < a.stage_estimates.size(); ++s) {
        EXPECT_EQ(a.stage_estimates[s].samples, b.stage_estimates[s].samples);
        EXPECT_EQ(a.stage_estimates[s].yield, b.stage_estimates[s].yield);
    }
    EXPECT_EQ(a.trajectory.size(), b.trajectory.size());
    // The blocking window drains nothing at a refit; wider windows may.
    EXPECT_EQ(a.discarded_samples, 0u);
    // And the refined estimate is still correct.
    EXPECT_NEAR(1.0 - a.estimate.yield, 1.349898e-3, 3.0 * 5e-4);
}

TEST(SequentialYield, StreamingDriverOnParallelEngine) {
    // Concurrency smoke for the TSan leg: several points, chunks in flight
    // on the shared pool, round-robin retirement.
    std::vector<yield::YieldPoint> points(3);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].specs = {mc::Spec::at_least("v", 44.0 + double(i))};
        points[i].factory = synthetic_factory(50.0, 2.0);
        points[i].dimension = 1;
    }
    yield::SequentialConfig config;
    config.pilot_samples = 32;
    config.chunk_samples = 32;
    config.max_samples = 512;
    config.min_samples = 64;
    config.target_half_width = 0.02;
    config.inflight = 3;

    eval::Engine engine = make_engine(true);
    const auto results =
        yield::run_yield_points(engine, config, points, Rng(9));
    ASSERT_EQ(results.size(), 3u);
    for (const auto& r : results) {
        EXPECT_GT(r.samples_used, 0u);
        EXPECT_GE(r.estimate.yield, 0.0);
        EXPECT_LE(r.estimate.yield, 1.0);
    }
}

TEST(SequentialYield, OtaKernelZeroShiftBitIdenticalToOtaMonteCarlo) {
    // The acceptance pin on the real testbench: the OTA yield kernel at zero
    // shift must reproduce run_ota_monte_carlo's rows bit-exactly, and the
    // estimator must collapse to mc::estimate_yield.
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing; // nominal mid-range sizing
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const std::size_t n = 48;

    eval::Engine plain_engine = make_engine();
    Rng plain_rng(2026);
    const mc::McResult plain = core::run_ota_monte_carlo(
        plain_engine, evaluator, sizing, sampler, n, plain_rng);
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("gain_db", 40.0),
                                         mc::Spec::at_least("pm_deg", 50.0)};
    const mc::YieldEstimate plain_yield = mc::estimate_yield(plain.rows, specs);

    eval::Engine engine = make_engine();
    yield::SequentialConfig config;
    config.pilot_samples = 0;
    config.chunk_samples = n;
    config.max_samples = n;
    config.min_samples = n;
    yield::SequentialYieldRunner runner(
        engine, config, specs,
        core::ota_yield_kernel_factory(evaluator, sizing, sampler),
        core::ota_yield_dimension(evaluator, sizing), Rng(2026));
    const yield::SequentialYieldResult result = runner.run();

    EXPECT_FALSE(result.estimate.weighted);
    EXPECT_EQ(result.estimate.samples, plain_yield.samples);
    EXPECT_EQ(result.estimate.passes, plain_yield.passes);
    EXPECT_EQ(result.estimate.yield, plain_yield.yield);
    EXPECT_EQ(result.estimate.ci_low, plain_yield.ci_low);
    EXPECT_EQ(result.estimate.ci_high, plain_yield.ci_high);
}

TEST(SequentialYield, OtaImportanceSamplingMatchesPlainEstimate) {
    // Cross-check on the real testbench at a moderate spec: the shifted
    // estimator must agree with a plain MC reference within joint CIs.
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());

    eval::Engine plain_engine = make_engine();
    Rng plain_rng(7);
    const mc::McResult plain = core::run_ota_monte_carlo(
        plain_engine, evaluator, sizing, sampler, 600, plain_rng);
    // Put the spec in the lower tail of the sampled gain population.
    const auto gain = plain.column(0);
    const mc::Summary s = mc::summarize(gain);
    // Rows carry {gain_db, pm_deg}; the pm spec is an always-pass
    // placeholder so the arity matches on both estimators.
    const std::vector<mc::Spec> specs = {
        mc::Spec::at_least("gain_db", s.mean - 2.0 * s.stddev),
        mc::Spec::at_least("pm_deg", -1e9)};
    const mc::YieldEstimate reference = mc::estimate_yield(plain.rows, specs);

    eval::Engine engine = make_engine();
    yield::SequentialConfig config;
    config.pilot_samples = 96;
    config.pilot_scale = 2.0;
    config.chunk_samples = 96;
    config.max_samples = 384;
    config.min_samples = 96;
    yield::SequentialYieldRunner runner(
        engine, config, specs,
        core::ota_yield_kernel_factory(evaluator, sizing, sampler),
        core::ota_yield_dimension(evaluator, sizing), Rng(13));
    const auto result = runner.run();

    EXPECT_TRUE(result.estimate.weighted); // the pilot found failures
    EXPECT_GT(result.shift.norm(), 0.0);
    // CI overlap between the two independent estimates.
    EXPECT_LE(result.estimate.ci_low, reference.ci_high);
    EXPECT_GE(result.estimate.ci_high, reference.ci_low);
}

TEST(SequentialYield, NoEarlyStopOnZeroFailureEvidenceUnderActiveWeights) {
    // Regression: a weighted run that observes no failures reports the
    // clean-sweep Wilson fallback CI; if the proposal is misaimed (it
    // undersamples the failure region), stopping on that CI would certify
    // a bound the sampling never supported. The runner must keep sampling
    // until it sees failure evidence (ess > 0) or hits the cap.
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 0.0)};
    // Kernel with active weights but no failures ever observed.
    const yield::KernelFactory factory =
        [](const process::ProposalMixture&, bool) -> mc::ChunkSampleFn {
        return [](std::span<const std::size_t>, std::span<Rng> rngs) {
            eval::RowBlock rows(2);
            for (Rng& rng : rngs) {
                (void)rng.gauss();
                rows.push_back({1.0, 0.1}); // always passes, log weight 0.1
            }
            return rows;
        };
    };
    eval::Engine engine = make_engine();
    yield::SequentialConfig config;
    config.pilot_samples = 0;
    config.chunk_samples = 64;
    config.max_samples = 512;
    config.min_samples = 64;
    config.target_half_width = 0.05; // Wilson fallback would meet this early
    yield::SequentialYieldRunner runner(engine, config, specs, factory, 1,
                                        Rng(19));
    const auto result = runner.run();
    EXPECT_EQ(result.samples_used, 512u); // ran to the cap
    EXPECT_FALSE(result.reached_target);
    EXPECT_EQ(result.estimate.ess, 0.0);
    EXPECT_EQ(result.estimate.ci_high, 1.0);
    EXPECT_LT(result.estimate.ci_low, 1.0);
}

TEST(SequentialYield, RunnerValidatesConfig) {
    eval::Engine engine = make_engine();
    const std::vector<mc::Spec> specs = {mc::Spec::at_least("v", 0.0)};
    yield::SequentialConfig bad;
    bad.chunk_samples = 0;
    EXPECT_THROW(yield::SequentialYieldRunner(engine, bad, specs,
                                              synthetic_factory(0.0, 1.0), 1,
                                              Rng(1)),
                 InvalidInputError);
    yield::SequentialConfig ok;
    EXPECT_THROW(yield::SequentialYieldRunner(engine, ok, {},
                                              synthetic_factory(0.0, 1.0), 1,
                                              Rng(1)),
                 InvalidInputError);
    // Regression: min_samples > max_samples used to be accepted silently,
    // making the early stop unreachable and burning the full cap.
    yield::SequentialConfig inverted;
    inverted.min_samples = 512;
    inverted.max_samples = 256;
    EXPECT_THROW(yield::SequentialYieldRunner(engine, inverted, specs,
                                              synthetic_factory(0.0, 1.0), 1,
                                              Rng(1)),
                 InvalidInputError);
    // A non-positive pilot widening would draw a degenerate pilot.
    yield::SequentialConfig flat_pilot;
    flat_pilot.pilot_scale = 0.0;
    EXPECT_THROW(yield::SequentialYieldRunner(engine, flat_pilot, specs,
                                              synthetic_factory(0.0, 1.0), 1,
                                              Rng(1)),
                 InvalidInputError);
}

} // namespace
