// Conformance suite for the yield estimator zoo (yield/estimator.hpp): the
// contracts every *registered* estimator must satisfy, enforced by looping
// over the registry rather than naming estimators in each test - a newly
// registered estimator inherits the whole suite for free.
//
//  - clean-sweep Wilson reduction: on a scenario with no failures every
//    estimator's estimate reduces bit-identically to the unweighted
//    Wilson numbers of plain MC;
//  - inflight-window invariance + rerun determinism: the retired prefix,
//    and therefore the whole result, is identical for any streaming window
//    and across reruns with the same seed;
//  - home-scenario sanity: every estimator reaches the CI target on the
//    cheap synthetic bimodal scenario within its cap.
//
// Plus unit tests for the CE scale adaptation in the shift fit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "eval/engine.hpp"
#include "mc/yield.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "yield/estimator.hpp"
#include "yield/probe.hpp"
#include "yield/scenarios.hpp"
#include "yield/sequential.hpp"
#include "yield/shift.hpp"
#include "yield/weighted.hpp"

namespace {

using namespace ypm;

// The built-in zoo, sorted by name - what names() must return.
const std::vector<std::string> kBuiltins = {"mixture_ce", "mixture_ce_scale",
                                           "plain_mc", "single_shift"};

eval::Engine make_engine() {
    eval::EngineConfig config;
    config.cache_capacity = 0;
    return eval::Engine(config);
}

yield::SequentialYieldResult run_estimator(const yield::Scenario& sc,
                                           const std::string& name,
                                           std::size_t inflight = 1) {
    eval::Engine engine = make_engine();
    yield::SequentialConfig base = sc.config;
    base.inflight = inflight;
    return yield::EstimatorRegistry::instance().create(name)->estimate(
        engine, base, sc.specs, sc.factory, sc.dimension, Rng(73));
}

// ---------------------------------------------------------------- registry

TEST(EstimatorRegistry, KnowsTheBuiltinZoo) {
    const auto& registry = yield::EstimatorRegistry::instance();
    EXPECT_EQ(registry.names(), kBuiltins);
    for (const std::string& name : kBuiltins) {
        const auto estimator = registry.create(name);
        ASSERT_NE(estimator, nullptr);
        EXPECT_EQ(estimator->name(), name);
    }
}

TEST(EstimatorRegistry, RejectsUnknownName) {
    // The unknown-name error lists the zoo, so a config typo points
    // straight at it.
    try {
        (void)yield::EstimatorRegistry::instance().create("no_such_estimator");
        FAIL() << "expected InvalidInputError";
    } catch (const InvalidInputError& e) {
        EXPECT_NE(std::string(e.what()).find("plain_mc"), std::string::npos);
    }
}

TEST(EstimatorRegistry, MethodKnobsDoNotLeakAcrossEstimators) {
    // A scenario base carrying another estimator's method knobs must not
    // change what a given estimator runs: plain_mc stays plain MC even
    // when handed a base config asking for CE refits and scale adaptation.
    yield::SequentialConfig base;
    base.refine_after_chunks = 2;
    base.max_refits = 3;
    base.shift_fit.adapt_scale = true;

    const auto& registry = yield::EstimatorRegistry::instance();
    const auto plain = registry.create("plain_mc")->configure(base);
    EXPECT_EQ(plain.pilot_samples, 0u);
    EXPECT_EQ(plain.refine_after_chunks, 0u);
    EXPECT_FALSE(plain.shift_fit.adapt_scale);

    const auto single = registry.create("single_shift")->configure(base);
    EXPECT_FALSE(single.mixture_proposal);
    EXPECT_EQ(single.refine_after_chunks, 0u);

    // And the problem-level knobs pass through untouched.
    const auto ce = registry.create("mixture_ce")->configure(base);
    EXPECT_EQ(ce.refine_after_chunks, 2u); // scenario override respected
    EXPECT_EQ(ce.max_refits, 3u);
    EXPECT_FALSE(ce.shift_fit.adapt_scale);

    const auto scale = registry.create("mixture_ce_scale")->configure(base);
    EXPECT_TRUE(scale.shift_fit.adapt_scale);
}

// ------------------------------------------------------------- conformance

TEST(EstimatorConformance, CleanSweepReducesToWilson) {
    // No failures anywhere: every pilot fits a zero shift, every proposal
    // degenerates to the nominal single component, every log weight is
    // exactly 0 - so every estimator must report the *unweighted* Wilson
    // numbers, bit-identical to plain MC's main stage.
    const yield::Scenario sc = yield::make_scenario("clean_sweep");
    const auto plain = run_estimator(sc, "plain_mc");
    ASSERT_FALSE(plain.estimate.weighted);
    EXPECT_EQ(plain.estimate.passes, plain.estimate.samples);
    for (const std::string& name : kBuiltins) {
        const auto r = run_estimator(sc, name);
        EXPECT_FALSE(r.estimate.weighted) << name;
        EXPECT_EQ(r.samples_used, plain.samples_used) << name;
        EXPECT_EQ(r.estimate.yield, plain.estimate.yield) << name;
        EXPECT_EQ(r.estimate.ci_low, plain.estimate.ci_low) << name;
        EXPECT_EQ(r.estimate.ci_high, plain.estimate.ci_high) << name;
    }
}

TEST(EstimatorConformance, InflightInvarianceAndRerunDeterminism) {
    // The streaming-window contract, zoo-wide: the retired prefix decides
    // everything, so inflight = 1 and inflight = 4 are bit-identical, as
    // are reruns with the same seed.
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    for (const std::string& name : kBuiltins) {
        const auto a = run_estimator(sc, name, 1);
        const auto b = run_estimator(sc, name, 4);
        const auto c = run_estimator(sc, name, 1);
        EXPECT_EQ(a.samples_used, b.samples_used) << name;
        EXPECT_EQ(a.refinements, b.refinements) << name;
        EXPECT_EQ(a.estimate.yield, b.estimate.yield) << name;
        EXPECT_EQ(a.estimate.ci_low, b.estimate.ci_low) << name;
        EXPECT_EQ(a.estimate.ci_high, b.estimate.ci_high) << name;
        EXPECT_EQ(a.estimate.ess, b.estimate.ess) << name;
        EXPECT_EQ(a.samples_used, c.samples_used) << name;
        EXPECT_EQ(a.estimate.yield, c.estimate.yield) << name;
        EXPECT_EQ(a.estimate.ci_low, c.estimate.ci_low) << name;
    }
}

TEST(EstimatorConformance, ReachesTargetOnSyntheticBimodal) {
    // Every zoo member must actually work on the cheap home scenario:
    // reach the CI target within the cap with a sane estimate. (Relative
    // efficiency is the bench matrix's job, not this suite's.)
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    const double p_true = 1.0 - (1.0 - 1.349898e-3) * (1.0 - 1.349898e-3);
    for (const std::string& name : kBuiltins) {
        const auto r = run_estimator(sc, name);
        EXPECT_TRUE(r.reached_target) << name;
        EXPECT_LE(r.samples_used, sc.config.max_samples) << name;
        EXPECT_NEAR(1.0 - r.estimate.yield, p_true, 5e-3) << name;
    }
}

// -------------------------------------------------------- scale adaptation

TEST(ShiftFitScale, LearnsWeightedSpreadAroundClampedCenter) {
    // One spec, dimension 1, unit weights. Failing records at u = 4 and 6:
    // the fitted mean 5 is norm-clamped to 4, and the CE variance around
    // the *clamped* center is E[u^2] - 2*4*E[u] + 16 = 26 - 40 + 16 = 2.
    const std::vector<mc::Spec> specs = {mc::Spec::at_most("v", 3.0)};
    const eval::RowBlock rows = {{4.0, 0.0, 4.0}, {6.0, 0.0, 6.0}};
    yield::ShiftFitConfig config;
    config.adapt_scale = true;
    const auto fit = yield::refit_shift(rows, specs, 1, config);
    ASSERT_EQ(fit.mixture.components.size(), 2u); // nominal + 1 spec
    const auto& comp = fit.mixture.components[1];
    EXPECT_DOUBLE_EQ(comp.mu[0], 4.0); // norm clamp at max_norm = 4
    ASSERT_EQ(comp.sigma.size(), 1u);
    EXPECT_NEAR(comp.sigma[0], std::sqrt(2.0), 1e-12);

    // Near-coincident records under-estimate the spread; the min_scale
    // clamp keeps the component from over-shrinking into weight spikes.
    const eval::RowBlock tight = {{3.5, 0.0, 3.5}, {3.6, 0.0, 3.6}};
    const auto shrunk = yield::refit_shift(tight, specs, 1, config);
    ASSERT_EQ(shrunk.mixture.components.size(), 2u);
    ASSERT_EQ(shrunk.mixture.components[1].sigma.size(), 1u);
    EXPECT_DOUBLE_EQ(shrunk.mixture.components[1].sigma[0], config.min_scale);

    // A single failing record carries no spread information: unit scale.
    const eval::RowBlock lone = {{4.0, 0.0, 4.0}};
    const auto single = yield::refit_shift(lone, specs, 1, config);
    ASSERT_EQ(single.mixture.components.size(), 2u);
    EXPECT_TRUE(single.mixture.components[1].sigma.empty());

    // The pilot fit never adapts scales, whatever the config says.
    const auto pilot = yield::fit_shift(rows, specs, 1, config);
    ASSERT_EQ(pilot.mixture.components.size(), 2u);
    EXPECT_TRUE(pilot.mixture.components[1].sigma.empty());

    // Malformed clamps are rejected up front.
    yield::ShiftFitConfig bad = config;
    bad.min_scale = 2.0;
    bad.max_scale = 1.0;
    EXPECT_THROW((void)yield::refit_shift(rows, specs, 1, bad),
                 InvalidInputError);
}

// ------------------------------------------------------------- yield probes

yield::ProbeConfig probe_config_for(const std::string& estimator,
                                    std::size_t budget) {
    yield::ProbeConfig config;
    config.estimator = estimator;
    config.budget = budget;
    config.target_half_width = 0.08;
    return config;
}

TEST(YieldProbe, RegistryDrivenBudgetCompatibilityRows) {
    // Zoo-wide contract of configure_probe_estimator: at a generous budget
    // every builtin specializes with its caps clamped to the budget left
    // after its pilot; at a budget the pilot alone exceeds, the estimator
    // is rejected with the probe-compatible subset (which always includes
    // the pilot-less plain_mc) listed - never silently degraded.
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    ASSERT_EQ(sc.config.pilot_samples, 256u);
    for (const std::string& name : kBuiltins) {
        const auto cfg =
            yield::configure_probe_estimator(name, sc.config, 1024, 0.08);
        EXPECT_EQ(cfg.max_samples, 1024 - cfg.pilot_samples) << name;
        EXPECT_LE(cfg.chunk_samples, cfg.max_samples) << name;
        EXPECT_LE(cfg.min_samples, cfg.max_samples) << name;
        EXPECT_DOUBLE_EQ(cfg.target_half_width, 0.08) << name;

        if (name == "plain_mc") {
            const auto tiny =
                yield::configure_probe_estimator(name, sc.config, 8, 0.08);
            EXPECT_EQ(tiny.pilot_samples, 0u);
            EXPECT_EQ(tiny.max_samples, 8u);
            continue;
        }
        try {
            (void)yield::configure_probe_estimator(name, sc.config, 8, 0.08);
            FAIL() << name << ": expected probe-incompatibility error";
        } catch (const InvalidInputError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find(name), std::string::npos) << what;
            EXPECT_NE(what.find("plain_mc"), std::string::npos) << what;
        }
    }
    // Unknown names still fail with the registry's own listing error.
    EXPECT_THROW((void)yield::configure_probe_estimator("no_such_estimator",
                                                        sc.config, 1024, 0.08),
                 InvalidInputError);
    // The empty name resolves to plain_mc (the flow default).
    const auto def = yield::configure_probe_estimator("", sc.config, 64, 0.08);
    EXPECT_EQ(def.pilot_samples, 0u);
    EXPECT_EQ(def.max_samples, 64u);
}

TEST(YieldProbe, DeterministicAcrossInflightWindowsAndReruns) {
    // The probe-path streaming contract: per-point estimates are
    // bit-identical for any inflight window and across reruns, because
    // point RNGs derive from submission position and each runner's folded
    // prefix is window-invariant.
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    const std::vector<std::vector<double>> points = {{0.0}, {1.0}, {2.0}};
    const auto run_with_window = [&](std::size_t inflight) {
        eval::Engine engine = make_engine();
        yield::SequentialConfig base = sc.config;
        base.inflight = inflight;
        yield::YieldProbe probe(
            probe_config_for("mixture_ce", 768), base, sc.specs,
            [&](const std::vector<double>&) { return sc.factory; },
            sc.dimension);
        return probe.probe(engine, points, Rng(73), 0);
    };
    const auto a = run_with_window(1);
    const auto b = run_with_window(4);
    const auto c = run_with_window(1);
    ASSERT_EQ(a.size(), points.size());
    ASSERT_EQ(b.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(a[i].samples_used, b[i].samples_used) << i;
        EXPECT_EQ(a[i].estimate.yield, b[i].estimate.yield) << i;
        EXPECT_EQ(a[i].estimate.ci_low, b[i].estimate.ci_low) << i;
        EXPECT_EQ(a[i].estimate.ci_high, b[i].estimate.ci_high) << i;
        EXPECT_EQ(a[i].estimate.ess, b[i].estimate.ess) << i;
        EXPECT_EQ(a[i].samples_used, c[i].samples_used) << i;
        EXPECT_EQ(a[i].estimate.yield, c[i].estimate.yield) << i;
        // Every probe respects the hard budget, pilot included.
        EXPECT_LE(a[i].samples_used, 768u) << i;
        EXPECT_FALSE(a[i].warm_started) << i;
    }
}

TEST(YieldProbe, WarmStartSkipsPilotAtSameCI) {
    // Generation-to-generation warm start: the first (cold) call fits
    // proposals from pilots and donates one; the second call skips pilots
    // entirely, so the same coarse CI costs a pilot less per point - and
    // the two estimates must agree at CI level (same quantity, exact
    // importance weights under either proposal).
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    const std::vector<std::vector<double>> point = {{0.0}};
    eval::Engine engine = make_engine();
    yield::YieldProbe probe(probe_config_for("single_shift", 768), sc.config,
                            sc.specs,
                            [&](const std::vector<double>&) { return sc.factory; },
                            sc.dimension);
    EXPECT_TRUE(probe.warm_proposal().components.empty());

    const auto cold = probe.probe(engine, point, Rng(73).child(1), 0);
    ASSERT_EQ(cold.size(), 1u);
    EXPECT_FALSE(cold[0].warm_started);
    EXPECT_GE(cold[0].samples_used, sc.config.pilot_samples);
    // The bimodal pilot always finds failures, so the hand-off happened.
    ASSERT_FALSE(probe.warm_proposal().components.empty());
    EXPECT_TRUE(probe.warm_proposal().active());

    const auto warm = probe.probe(engine, point, Rng(73).child(2), 1);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_TRUE(warm[0].warm_started);
    // No pilot: the whole budget is main-stage, and the coarse target stops
    // the run a full pilot cheaper than the cold call.
    EXPECT_LT(warm[0].samples_used, cold[0].samples_used);
    EXPECT_TRUE(warm[0].reached_target);
    // Same-CI sanity: the two coarse intervals overlap.
    EXPECT_LE(cold[0].estimate.ci_low, warm[0].estimate.ci_high);
    EXPECT_LE(warm[0].estimate.ci_low, cold[0].estimate.ci_high);

    EXPECT_EQ(probe.total_samples(),
              cold[0].samples_used + warm[0].samples_used);
}

TEST(YieldProbe, RunnerWarmStartSeamValidation) {
    // The runner-level seam the probe rides: a warm proposal and a pilot
    // are mutually exclusive (ambiguous), and a warm-started runner binds
    // the given proposal as its main stage.
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    eval::Engine engine = make_engine();

    process::SampleShift shift;
    shift.mu = {3.0, 0.0};
    yield::SequentialConfig both = sc.config;
    both.initial_proposal = process::ProposalMixture::single(shift);
    EXPECT_THROW(yield::SequentialYieldRunner(engine, both, sc.specs,
                                              sc.factory, sc.dimension,
                                              Rng(73)),
                 InvalidInputError);

    yield::SequentialConfig warm = both;
    warm.pilot_samples = 0;
    warm.max_samples = 512;
    warm.min_samples = 256;
    yield::SequentialYieldRunner runner(engine, warm, sc.specs, sc.factory,
                                        sc.dimension, Rng(73));
    const auto r = runner.run();
    EXPECT_EQ(r.pilot_samples, 0u);
    ASSERT_EQ(r.proposal.components.size(), 1u);
    EXPECT_EQ(r.proposal.components[0].mu, shift.mu);
    EXPECT_TRUE(r.estimate.weighted);
}

TEST(YieldProbe, RejectsMalformedConstruction) {
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    const auto factory = [&](const std::vector<double>&) { return sc.factory; };
    EXPECT_THROW(yield::YieldProbe(probe_config_for("", 0), sc.config,
                                   sc.specs, factory, sc.dimension),
                 InvalidInputError);
    EXPECT_THROW(yield::YieldProbe(probe_config_for("", 64), sc.config, {},
                                   factory, sc.dimension),
                 InvalidInputError);
    EXPECT_THROW(yield::YieldProbe(probe_config_for("", 64), sc.config,
                                   sc.specs, {}, sc.dimension),
                 InvalidInputError);
    yield::ProbeConfig negative_target = probe_config_for("", 64);
    negative_target.target_half_width = -0.1;
    EXPECT_THROW(yield::YieldProbe(negative_target, sc.config, sc.specs,
                                   factory, sc.dimension),
                 InvalidInputError);
}

} // namespace
