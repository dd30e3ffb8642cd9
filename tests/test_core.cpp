// Tests for the core flow components: Pareto extraction from archives, MC
// enrichment, artefact round-trips, the behavioural model's yield-targeted
// sizing (paper Table 3 logic) and model-vs-transistor verification.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/artifacts.hpp"
#include "core/behav_model.hpp"
#include "core/flow.hpp"
#include "core/ota_mc.hpp"
#include "core/verify.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::core;

// Synthetic front shaped like the paper's Table 2 region.
std::vector<FrontPointData> synthetic_front() {
    std::vector<FrontPointData> front;
    const std::size_t n = 15;
    for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(i) / (n - 1);
        FrontPointData p;
        p.design_id = i + 1;
        p.gain_db = 49.5 + 2.5 * t;             // 49.5 -> 52.0 dB
        p.pm_deg = 77.0 - 4.5 * t;              // 77 -> 72.5 deg
        p.dgain_pct = 0.52 - 0.10 * t;          // paper Table 2-like
        p.dpm_pct = 1.50 + 0.20 * t;
        p.dgain_halfrange_pct = p.dgain_pct * 1.2;
        p.dpm_halfrange_pct = p.dpm_pct * 1.2;
        p.f3db = 4e3 + 2e3 * t;
        p.gbw = 3e6 + 2e6 * t;
        circuits::OtaSizing s;
        s.w1 = 15e-6 + 40e-6 * t;
        s.l1 = 3.0e-6 - 1.5e-6 * t;
        p.sizing = s;
        front.push_back(p);
    }
    return front;
}

TEST(BehaviouralModel, DeltaInterpolationMatchesTable) {
    const BehaviouralModel model(synthetic_front());
    // At the low-gain end, Δgain ~ 0.52 %.
    EXPECT_NEAR(model.gain_delta_pct(49.5), 0.52, 0.02);
    // Midway: linear profile gives ~0.47.
    EXPECT_NEAR(model.gain_delta_pct(50.75), 0.47, 0.03);
    // PM delta at 77 deg is the front's low-t end: ~1.50.
    EXPECT_NEAR(model.pm_delta_pct(77.0), 1.50, 0.03);
}

TEST(BehaviouralModel, YieldTargetingInflatesRequirement) {
    // Paper Table 3: required gain 50 dB with Δ ~ 0.5 % -> target ~ 50.26 dB.
    const BehaviouralModel model(synthetic_front());
    const SizingResult r = model.size_for_spec(50.0, 74.0);
    EXPECT_GT(r.target_gain_db, 50.0);
    EXPECT_LT(r.target_gain_db, 50.6);
    EXPECT_NEAR(r.target_gain_db,
                50.0 * (1.0 + model.gain_delta_pct(50.0) / 100.0), 1e-9);
    EXPECT_GT(r.target_pm_deg, 74.0);
    EXPECT_NEAR(r.target_pm_deg, 74.0 * (1.0 + model.pm_delta_pct(74.0) / 100.0),
                1e-9);
}

TEST(BehaviouralModel, FeasibleSpecYieldsDominatingPoint) {
    const BehaviouralModel model(synthetic_front());
    const SizingResult r = model.size_for_spec(50.0, 73.5);
    EXPECT_TRUE(r.feasible);
    EXPECT_GE(r.predicted_gain_db, r.target_gain_db - 1e-6);
    EXPECT_GE(r.predicted_pm_deg, r.target_pm_deg - 1e-6);
    // Sizing must lie inside the front's parameter range.
    EXPECT_GE(r.sizing.w1, 15e-6 - 1e-9);
    EXPECT_LE(r.sizing.w1, 55e-6 + 1e-9);
}

TEST(BehaviouralModel, InfeasibleSpecFlagged) {
    const BehaviouralModel model(synthetic_front());
    // Nothing on the synthetic front has gain 52 AND pm 77.
    const SizingResult r = model.size_for_spec(52.0, 77.0);
    EXPECT_FALSE(r.feasible);
}

TEST(BehaviouralModel, MacromodelSpecUsesFrontData) {
    const BehaviouralModel model(synthetic_front());
    const SizingResult r = model.size_for_spec(50.0, 74.0);
    const auto spec = model.macromodel_spec(r);
    EXPECT_DOUBLE_EQ(spec.gain_db, r.predicted_gain_db);
    // rout recreates the characterised pole (4-6 kHz on this front)
    // against the 10 pF testbench load: 1/(2 pi f3db CL).
    const double f_from_rout = 1.0 / (2.0 * 3.14159265358979 * spec.rout * 10e-12);
    EXPECT_GT(f_from_rout, 3e3);
    EXPECT_LT(f_from_rout, 7e3);
    EXPECT_GE(spec.f3db, 1e8); // intrinsic pole out of band
}

TEST(BehaviouralModel, CoverageAccessors) {
    const BehaviouralModel model(synthetic_front());
    EXPECT_NEAR(model.gain_min(), 49.5, 1e-9);
    EXPECT_NEAR(model.gain_max(), 52.0, 1e-9);
    EXPECT_NEAR(model.pm_min(), 72.5, 1e-9);
    EXPECT_NEAR(model.pm_max(), 77.0, 1e-9);
}

TEST(Artifacts, WriteAndReadRoundTrip) {
    const auto front = synthetic_front();
    const auto dir =
        (std::filesystem::temp_directory_path() / "ypm_artifacts_test").string();
    const ModelArtifacts art = write_artifacts(front, dir);

    EXPECT_TRUE(std::filesystem::exists(art.gain_delta_tbl));
    EXPECT_TRUE(std::filesystem::exists(art.pm_delta_tbl));
    EXPECT_EQ(art.param_tbls.size(), 8u);
    EXPECT_TRUE(std::filesystem::exists(art.va_module));
    EXPECT_TRUE(std::filesystem::exists(art.front_csv));

    const auto back = read_front_from_artifacts(art);
    ASSERT_EQ(back.size(), front.size());
    for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_DOUBLE_EQ(back[i].gain_db, front[i].gain_db);
        EXPECT_DOUBLE_EQ(back[i].pm_deg, front[i].pm_deg);
        EXPECT_DOUBLE_EQ(back[i].dgain_pct, front[i].dgain_pct);
        EXPECT_DOUBLE_EQ(back[i].sizing.w1, front[i].sizing.w1);
        EXPECT_DOUBLE_EQ(back[i].f3db, front[i].f3db);
    }

    // A model built from the reloaded artefacts answers identically.
    const BehaviouralModel direct(front);
    const BehaviouralModel reloaded = BehaviouralModel::from_artifacts(art);
    EXPECT_NEAR(direct.gain_delta_pct(50.5), reloaded.gain_delta_pct(50.5), 1e-9);

    std::filesystem::remove_all(dir);
}

TEST(Artifacts, RejectsTinyFront) {
    std::vector<FrontPointData> tiny(2);
    EXPECT_THROW((void)write_artifacts(tiny, "/tmp/ypm_tiny"), InvalidInputError);
}

TEST(OtaMc, VariationInPaperBallpark) {
    const circuits::OtaEvaluator ev;
    const process::ProcessSampler sampler(ev.config().card,
                                          process::VariationSpec::c35());
    eval::Engine engine;
    Rng rng(3);
    const auto mc = run_ota_monte_carlo(engine, ev, circuits::OtaSizing{},
                                        sampler, 80, rng);
    EXPECT_EQ(mc.size(), 80u);
    EXPECT_LT(mc.failed(), 4u);
    const auto gv = mc.column_variation(0);
    const auto pv = mc.column_variation(1);
    // Paper Table 2: Δgain ~ 0.4-0.6 %, Δpm ~ 1.5-1.7 %; our substrate lands
    // in the sub-percent decade with Δpm > Δgain.
    EXPECT_GT(gv.delta_3sigma_pct, 0.05);
    EXPECT_LT(gv.delta_3sigma_pct, 3.0);
    EXPECT_GT(pv.delta_3sigma_pct, gv.delta_3sigma_pct * 0.5);
}

TEST(Flow, ExtractFrontFromArchive) {
    // Hand-built archive with a known 2-point front.
    moo::WbgaResult result;
    auto add = [&](double g, double p) {
        moo::EvaluatedIndividual e;
        e.objectives = {g, p};
        result.archive.push_back(e);
    };
    add(50.0, 80.0); // front
    add(52.0, 75.0); // front
    add(49.0, 79.0); // dominated by (50, 80)
    add(51.0, 74.0); // dominated by (52, 75)
    const auto front = extract_front_indices(result);
    ASSERT_EQ(front.size(), 2u);
    // Sorted by gain.
    EXPECT_EQ(front[0], 0u);
    EXPECT_EQ(front[1], 1u);
}

TEST(Flow, RejectsMalformedYieldSpecs) {
    // The OTA yield kernel's row layout is positional ({gain_db, pm_deg}),
    // so the flow must fail fast - before the expensive MOO stage - on
    // reordered or wrong-arity specs rather than certify wrong yields.
    circuits::OtaConfig ota;
    FlowConfig cfg;
    cfg.ga.population = 4;
    cfg.ga.generations = 1;

    FlowConfig reversed = cfg;
    reversed.yield_specs = {mc::Spec::at_least("pm_deg", 60.0),
                            mc::Spec::at_least("gain_db", 30.0)};
    EXPECT_THROW((void)YieldFlow(ota, reversed).run(), InvalidInputError);

    FlowConfig single = cfg;
    single.yield_specs = {mc::Spec::at_least("gain_db", 30.0)};
    EXPECT_THROW((void)YieldFlow(ota, single).run(), InvalidInputError);

    const std::vector<mc::Spec> good_specs = {
        mc::Spec::at_least("gain_db", 30.0), mc::Spec::at_least("pm_deg", 15.0)};

    // min_samples > max_samples would make the yield stage's early stop
    // silently unreachable; fail before the MOO stage, not inside it.
    FlowConfig inverted = cfg;
    inverted.yield_specs = good_specs;
    inverted.yield_sequential.min_samples = 512;
    inverted.yield_sequential.max_samples = 256;
    EXPECT_THROW((void)YieldFlow(ota, inverted).run(), InvalidInputError);
}

TEST(Flow, SingleMonteCarloPointIsTheMiddleOfTheFront) {
    // Regression: max_mc_points = 1 used to space the picks by (n - 1) / 0,
    // cast the resulting NaN to an index and silently take the last point.
    // One point is the middle of the front: index 4 of this 10-point front.
    circuits::OtaConfig ota;
    FlowConfig cfg;
    cfg.ga.population = 20;
    cfg.ga.generations = 5;
    cfg.mc_samples = 8;
    cfg.max_mc_points = 1;
    cfg.seed = 1;
    const FlowResult r = YieldFlow(ota, cfg).run();
    ASSERT_EQ(r.pareto_indices.size(), 10u);
    ASSERT_EQ(r.front.size(), 1u);
    const auto& middle = r.optimisation.archive[r.pareto_indices[4]];
    EXPECT_EQ(r.front[0].gain_db, middle.objectives[0]);
    EXPECT_EQ(r.front[0].pm_deg, middle.objectives[1]);
    EXPECT_NEAR(r.front[0].gain_db, 60.88, 0.01);
    EXPECT_EQ(r.timings.mc_evaluations, cfg.mc_samples);
}

TEST(Artifacts, YieldTableWrittenWithProbeDeltas) {
    auto front = synthetic_front();
    std::vector<FrontPointYield> yields;
    for (auto& p : front) {
        p.probe_yield = 0.75; // exact in binary, so probe_delta is too
        FrontPointYield y;
        y.design_id = p.design_id;
        y.result.estimate.yield = 0.5;
        y.result.estimate.ci_low = 0.4375;
        y.result.estimate.ci_high = 0.5625;
        y.result.estimate.ess = 40.0;
        y.result.samples_used = 128;
        y.result.reached_target = true;
        yields.push_back(y);
    }
    const auto dir =
        (std::filesystem::temp_directory_path() / "ypm_yield_artifacts").string();
    const ModelArtifacts art = write_artifacts(front, yields, dir);
    ASSERT_TRUE(std::filesystem::exists(art.yield_csv));
    // Full coverage of the front: the back-annotation spline table rides
    // along.
    ASSERT_TRUE(std::filesystem::exists(art.yield_tbl));
    std::ifstream csv(art.yield_csv);
    std::string header;
    std::getline(csv, header);
    EXPECT_NE(header.find("probe_yield"), std::string::npos);
    EXPECT_NE(header.find("probe_delta"), std::string::npos);
    std::string row;
    std::getline(csv, row);
    // probe_delta = 0.75 - 0.5.
    EXPECT_NE(row.find("0.25"), std::string::npos) << row;

    // Partial coverage keeps the CSV but drops the spline table.
    const ModelArtifacts partial =
        write_artifacts(front, {yields[0]}, dir + "_partial");
    EXPECT_TRUE(std::filesystem::exists(partial.yield_csv));
    EXPECT_TRUE(partial.yield_tbl.empty());

    // Rows must match front points: an unknown design_id is rejected.
    yields[0].design_id = 99;
    EXPECT_THROW((void)write_artifacts(front, yields, dir + "_bad"),
                 InvalidInputError);

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_partial");
}

TEST(Flow, RejectsMalformedProbeKnobs) {
    // Probe knobs are validated fail-fast in run(), before the MOO stage:
    // by the flow (probes need specs) or by the knob's owner - Wbga for
    // ga.robustness, configure_probe_estimator for yield_probe.
    circuits::OtaConfig ota;
    FlowConfig cfg;
    cfg.ga.population = 4;
    cfg.ga.generations = 2;
    cfg.yield_specs = {mc::Spec::at_least("gain_db", 30.0),
                       mc::Spec::at_least("pm_deg", 15.0)};

    // Probes need specs to probe against.
    FlowConfig no_specs = cfg;
    no_specs.yield_specs.clear();
    no_specs.yield_probe.budget = 32;
    EXPECT_THROW((void)YieldFlow(ota, no_specs).run(), InvalidInputError);

    // An activation at or past the generation count would silently never
    // probe.
    FlowConfig never = cfg;
    never.yield_probe.budget = 32;
    never.ga.robustness.activation_generation = 2;
    EXPECT_THROW((void)YieldFlow(ota, never).run(), InvalidInputError);

    FlowConfig bad_target = cfg;
    bad_target.yield_probe.budget = 32;
    bad_target.yield_probe.target_half_width = -0.1;
    EXPECT_THROW((void)YieldFlow(ota, bad_target).run(), InvalidInputError);

    FlowConfig bad_weight = cfg;
    bad_weight.yield_probe.budget = 32;
    bad_weight.ga.robustness.yield_weight = 1.5;
    EXPECT_THROW((void)YieldFlow(ota, bad_weight).run(), InvalidInputError);

    // A valid estimator whose pilot cannot fit the probe budget must be
    // rejected up front, listing the probe-compatible zoo members.
    FlowConfig incompatible = cfg;
    incompatible.yield_sequential.pilot_samples = 24;
    incompatible.yield_sequential.chunk_samples = 8;
    incompatible.yield_sequential.max_samples = 48;
    incompatible.yield_sequential.min_samples = 8;
    incompatible.yield_probe.budget = 8;
    incompatible.yield_probe.estimator = "single_shift";
    try {
        (void)YieldFlow(ota, incompatible).run();
        FAIL() << "expected probe-incompatibility error";
    } catch (const InvalidInputError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("single_shift"), std::string::npos) << what;
        EXPECT_NE(what.find("plain_mc"), std::string::npos) << what;
    }
}

TEST(Flow, ProbesOffBitIdenticalToSeedFlow) {
    // The refactor's load-bearing guarantee: with probes disabled
    // (budget 0), every other probe knob may be set - even a caller-set
    // probe, which the flow replaces - and the flow still reproduces the
    // probe-less pipeline bit-for-bit, RNG streams included.
    circuits::OtaConfig ota;
    FlowConfig cfg;
    cfg.ga.population = 8;
    cfg.ga.generations = 3;
    cfg.mc_samples = 12;
    cfg.max_mc_points = 4;
    cfg.seed = 77;
    cfg.yield_specs = {mc::Spec::at_least("gain_db", 30.0),
                       mc::Spec::at_least("pm_deg", 15.0)};
    cfg.yield_sequential.pilot_samples = 12;
    cfg.yield_sequential.chunk_samples = 12;
    cfg.yield_sequential.max_samples = 24;
    cfg.yield_sequential.min_samples = 12;
    const FlowResult seed = YieldFlow(ota, cfg).run();

    FlowConfig knobs = cfg;
    knobs.yield_probe.budget = 0; // off - the only knob that matters
    knobs.yield_probe.estimator = "single_shift";
    knobs.ga.robustness.activation_generation = 1;
    knobs.ga.robustness.mode = moo::RobustnessMode::constraint;
    knobs.ga.robustness.min_yield = 0.8;
    knobs.ga.robustness.max_points = 2;
    std::size_t caller_probe_calls = 0;
    knobs.ga.robustness.probe = [&](const std::vector<std::vector<double>>& p,
                                    std::size_t) {
        ++caller_probe_calls;
        return std::vector<double>(p.size(), 1.0);
    };
    const FlowResult off = YieldFlow(ota, knobs).run();
    EXPECT_EQ(caller_probe_calls, 0u);

    ASSERT_EQ(off.optimisation.archive.size(), seed.optimisation.archive.size());
    for (std::size_t i = 0; i < off.optimisation.archive.size(); ++i) {
        EXPECT_EQ(off.optimisation.archive[i].objectives,
                  seed.optimisation.archive[i].objectives);
        EXPECT_EQ(off.optimisation.archive[i].fitness,
                  seed.optimisation.archive[i].fitness);
        EXPECT_TRUE(std::isnan(off.optimisation.archive[i].robustness));
    }
    ASSERT_EQ(off.front.size(), seed.front.size());
    for (std::size_t i = 0; i < off.front.size(); ++i) {
        EXPECT_EQ(off.front[i].gain_db, seed.front[i].gain_db);
        EXPECT_EQ(off.front[i].dgain_pct, seed.front[i].dgain_pct);
        EXPECT_TRUE(std::isnan(off.front[i].probe_yield));
    }
    ASSERT_EQ(off.yields.size(), seed.yields.size());
    for (std::size_t i = 0; i < off.yields.size(); ++i) {
        EXPECT_EQ(off.yields[i].result.estimate.yield,
                  seed.yields[i].result.estimate.yield);
        EXPECT_EQ(off.yields[i].result.estimate.ci_low,
                  seed.yields[i].result.estimate.ci_low);
        EXPECT_EQ(off.yields[i].result.samples_used,
                  seed.yields[i].result.samples_used);
    }
    EXPECT_EQ(off.timings.probe_points, 0u);
    EXPECT_EQ(off.timings.probe_samples, 0u);
}

TEST(Flow, ProbesOnSmokeReportsAndPropagates) {
    circuits::OtaConfig ota;
    FlowConfig cfg;
    cfg.ga.population = 8;
    cfg.ga.generations = 3;
    cfg.mc_samples = 12;
    cfg.max_mc_points = 4;
    cfg.seed = 77;
    cfg.yield_specs = {mc::Spec::at_least("gain_db", 30.0),
                       mc::Spec::at_least("pm_deg", 15.0)};
    cfg.yield_sequential.pilot_samples = 12;
    cfg.yield_sequential.chunk_samples = 12;
    cfg.yield_sequential.max_samples = 24;
    cfg.yield_sequential.min_samples = 12;
    cfg.yield_probe.budget = 32;              // plain_mc probes (no pilot)
    cfg.ga.robustness.activation_generation = 1;
    cfg.ga.robustness.max_points = 4;
    const FlowResult res = YieldFlow(ota, cfg).run();

    // Generations 1 and 2 probed their top-4 cohorts.
    EXPECT_EQ(res.timings.probe_points, 8u);
    EXPECT_GT(res.timings.probe_samples, 0u);
    EXPECT_LE(res.timings.probe_samples, 8u * 32u);
    EXPECT_GT(res.timings.probe_seconds, 0.0);

    std::size_t probed = 0;
    for (const auto& e : res.optimisation.archive)
        if (!std::isnan(e.robustness)) {
            ++probed;
            EXPECT_GE(e.robustness, 0.0);
            EXPECT_LE(e.robustness, 1.0);
        }
    EXPECT_EQ(probed, 8u);
    // The probe estimate travels archive -> front (an unprobed design stays
    // unprobed); every front point carries a yield certificate.
    ASSERT_EQ(res.yields.size(), res.front.size());
    for (std::size_t i = 0; i < res.front.size(); ++i) {
        EXPECT_EQ(res.yields[i].design_id, res.front[i].design_id);
        if (!std::isnan(res.front[i].probe_yield)) {
            EXPECT_GE(res.front[i].probe_yield, 0.0);
            EXPECT_LE(res.front[i].probe_yield, 1.0);
        }
    }
}

TEST(Verify, ModelVsTransistorErrorsSmallOnFrontPoint) {
    // Build a tiny real flow result: measure 5 sizings, use them as a
    // "front", then ask the model for a spec inside it.
    const circuits::OtaEvaluator ev;
    std::vector<FrontPointData> front;
    std::size_t id = 1;
    for (double w1 : {12e-6, 24e-6, 36e-6, 48e-6, 60e-6}) {
        circuits::OtaSizing s;
        s.w1 = w1;
        const auto perf = ev.measure(s);
        ASSERT_TRUE(perf.valid);
        FrontPointData p;
        p.design_id = id++;
        p.sizing = s;
        p.gain_db = perf.gain_db;
        p.pm_deg = perf.pm_deg;
        p.dgain_pct = 0.4;
        p.dpm_pct = 0.7;
        p.f3db = perf.bode.f3db;
        p.gbw = perf.bode.gbw;
        front.push_back(p);
    }
    const BehaviouralModel model(front);
    const double mid_gain = (model.gain_min() + model.gain_max()) / 2.0;
    const double low_pm = model.pm_min() + 0.2 * (model.pm_max() - model.pm_min());
    const SizingResult sized = model.size_for_spec(mid_gain, low_pm);
    eval::Engine engine;
    const ModelVsTransistor cmp =
        compare_model_vs_transistor(engine, ev, sized);
    // Paper Table 4 reports ~1 % errors; interpolating along a smooth real
    // front should land within a few percent.
    EXPECT_LT(cmp.gain_error_pct, 5.0);
    EXPECT_LT(cmp.pm_error_pct, 5.0);
}

} // namespace
