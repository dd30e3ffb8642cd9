// Tests for the benchmark circuits: symmetrical OTA (paper Fig. 5) and the
// 2nd-order low-pass filter (paper Fig. 9), including the physical
// behaviours the paper's optimisation relies on.

#include <gtest/gtest.h>

#include <cmath>

#include "circuits/filter.hpp"
#include "circuits/filter_problem.hpp"
#include "circuits/ota.hpp"
#include "circuits/ota_problem.hpp"
#include "process/sampler.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::circuits;

// ------------------------------------------------------------------- OTA

TEST(OtaSizing, VectorRoundTrip) {
    OtaSizing s;
    s.w1 = 11e-6;
    s.l3 = 3e-6;
    const OtaSizing back = OtaSizing::from_vector(s.to_vector());
    EXPECT_DOUBLE_EQ(back.w1, 11e-6);
    EXPECT_DOUBLE_EQ(back.l3, 3e-6);
    EXPECT_THROW((void)OtaSizing::from_vector({1.0, 2.0}), InvalidInputError);
}

TEST(OtaSizing, SpecsMatchPaperTable1) {
    const auto specs = OtaSizing::parameter_specs();
    ASSERT_EQ(specs.size(), 8u);
    for (std::size_t i = 0; i < 8; i += 2) {
        EXPECT_DOUBLE_EQ(specs[i].lo, 10e-6);  // W range 10-60 um
        EXPECT_DOUBLE_EQ(specs[i].hi, 60e-6);
        EXPECT_DOUBLE_EQ(specs[i + 1].lo, 0.35e-6); // L range 0.35-4 um
        EXPECT_DOUBLE_EQ(specs[i + 1].hi, 4e-6);
    }
}

TEST(Ota, TestbenchHasTenTransistors) {
    const spice::Circuit ckt = build_ota_testbench(OtaSizing{}, OtaConfig{});
    const auto geoms = ckt.mos_geometries();
    EXPECT_EQ(geoms.size(), 10u);
}

TEST(Ota, AllTransistorsSaturatedAtNominal) {
    const OtaEvaluator ev;
    const auto regions = ev.op_regions(OtaSizing{});
    ASSERT_EQ(regions.size(), 10u);
    for (const auto& [name, region] : regions)
        EXPECT_EQ(region, spice::Mosfet::Region::saturation)
            << name << " is " << spice::to_string(region);
}

TEST(Ota, NominalPerformanceInPaperBallpark) {
    const OtaEvaluator ev;
    const OtaPerformance perf = ev.measure(OtaSizing{});
    ASSERT_TRUE(perf.valid) << perf.failure;
    // Paper section 4: gain ~ 50 dB, PM ~ 75 deg on the front.
    EXPECT_GT(perf.gain_db, 40.0);
    EXPECT_LT(perf.gain_db, 70.0);
    EXPECT_GT(perf.pm_deg, 45.0);
    EXPECT_LT(perf.pm_deg, 95.0);
}

TEST(Ota, MirrorRatioTradesPhaseMarginForBandwidth) {
    // Larger W1 (bigger B) must cost phase margin - the trade-off that
    // creates the paper's Pareto front.
    const OtaEvaluator ev;
    OtaSizing small;
    small.w1 = 12e-6;
    OtaSizing large;
    large.w1 = 58e-6;
    const auto ps = ev.measure(small);
    const auto pl = ev.measure(large);
    ASSERT_TRUE(ps.valid && pl.valid);
    EXPECT_GT(ps.pm_deg, pl.pm_deg);
    EXPECT_GT(pl.bode.gbw, ps.bode.gbw);
}

TEST(Ota, LongerMirrorLengthRaisesGain) {
    // Longer L1 reduces channel-length modulation at the output -> more gain.
    const OtaEvaluator ev;
    OtaSizing short_l;
    short_l.l1 = 0.5e-6;
    OtaSizing long_l;
    long_l.l1 = 3.5e-6;
    const auto p_short = ev.measure(short_l);
    const auto p_long = ev.measure(long_l);
    ASSERT_TRUE(p_short.valid && p_long.valid);
    EXPECT_GT(p_long.gain_db, p_short.gain_db);
}

TEST(Ota, AcResponseRollsOff) {
    const OtaEvaluator ev;
    const auto resp = ev.ac_response(OtaSizing{});
    ASSERT_GT(resp.freqs.size(), 50u);
    const double dc_mag = std::abs(resp.h.front());
    const double hf_mag = std::abs(resp.h.back());
    EXPECT_GT(dc_mag, 100.0); // > 40 dB
    EXPECT_LT(hf_mag, dc_mag / 1000.0);
}

TEST(Ota, ProcessRealizationShiftsPerformance) {
    const OtaEvaluator ev;
    const auto nominal = ev.measure(OtaSizing{});
    // A strong global shift (both polarities 3 sigma slow: higher threshold
    // magnitude, lower KP) must move the measured gain.
    const auto& g = process::VariationSpec::c35().global;
    process::Realization slow;
    slow.global.dvth_n = 3.0 * g.sigma_vth_n;
    slow.global.dvth_p = 3.0 * g.sigma_vth_p;
    slow.global.kp_scale_n = 1.0 - 3.0 * g.sigma_kp_rel_n;
    slow.global.kp_scale_p = 1.0 - 3.0 * g.sigma_kp_rel_p;
    const auto shifted = ev.measure(OtaSizing{}, slow);
    ASSERT_TRUE(nominal.valid && shifted.valid);
    EXPECT_NE(nominal.gain_db, shifted.gain_db);
}

TEST(OtaProblem, EvaluateMatchesEvaluator) {
    const OtaProblem problem;
    EXPECT_EQ(problem.parameters().size(), 8u);
    ASSERT_EQ(problem.objectives().size(), 2u);
    EXPECT_EQ(problem.objectives()[0].name, "gain_db");
    EXPECT_EQ(problem.objectives()[0].dir, moo::Direction::maximize);

    const OtaSizing s;
    const auto objs = problem.evaluate(s.to_vector());
    const auto direct = problem.evaluator().measure(s);
    ASSERT_TRUE(direct.valid);
    EXPECT_DOUBLE_EQ(objs[0], direct.gain_db);
    EXPECT_DOUBLE_EQ(objs[1], direct.pm_deg);
}

// ---------------------------------------------------------------- filter

TEST(FilterSizing, VectorRoundTripAndSpecs) {
    FilterSizing s{10e-12, 20e-12, 30e-12};
    const FilterSizing back = FilterSizing::from_vector(s.to_vector());
    EXPECT_DOUBLE_EQ(back.c2, 20e-12);
    EXPECT_EQ(FilterSizing::parameter_specs().size(), 3u);
}

TEST(Filter, BehaviouralResponseIsLowpass) {
    const FilterEvaluator ev{FilterConfig{}, FilterSpecMask{}};
    const auto perf = ev.measure(FilterSizing{}, OtaModelKind::behavioural);
    ASSERT_TRUE(perf.valid) << perf.failure;
    EXPECT_NEAR(perf.passband_gain_db, 0.0, 1.0); // unity-gain topology
    EXPECT_FALSE(std::isnan(perf.fc));
    EXPECT_GT(perf.stopband_atten_db, 10.0);
}

TEST(Filter, TransistorResponseIsLowpass) {
    const FilterEvaluator ev{FilterConfig{}, FilterSpecMask{}};
    const auto perf = ev.measure(FilterSizing{}, OtaModelKind::transistor);
    ASSERT_TRUE(perf.valid) << perf.failure;
    EXPECT_NEAR(perf.passband_gain_db, 0.0, 1.5);
    EXPECT_FALSE(std::isnan(perf.fc));
}

TEST(Filter, BehaviouralAndTransistorCutoffsAgreeRoughly) {
    // The macromodel should track the transistor filter in the passband
    // region (divergence appears only at high frequency, cf. Fig. 8) -
    // provided the macromodel is derived from that transistor OTA, which
    // is exactly what the paper's flow does.
    FilterConfig cfg;
    const OtaEvaluator ota_ev(cfg.ota_config);
    const auto ota_perf = ota_ev.measure(cfg.ota_sizing);
    ASSERT_TRUE(ota_perf.valid);
    cfg.ota_spec.gain_db = ota_perf.gain_db;
    // ro forms the dominant pole against the testbench load (see
    // BehaviouralModel::macromodel_spec); intrinsic pole out of band.
    cfg.ota_spec.rout = 1.0 / (2.0 * 3.14159265358979 * ota_perf.bode.f3db *
                               cfg.ota_config.c_load);
    cfg.ota_spec.f3db = 1e9;

    const FilterEvaluator ev{cfg, FilterSpecMask{}};
    const FilterSizing s{48e-12, 24e-12, 8e-12};
    const auto behav = ev.measure(s, OtaModelKind::behavioural);
    const auto trans = ev.measure(s, OtaModelKind::transistor);
    ASSERT_TRUE(behav.valid && trans.valid);
    EXPECT_NEAR(behav.fc, trans.fc, trans.fc * 0.35);
}

TEST(Filter, SmallerCapsRaiseCutoff) {
    const FilterEvaluator ev{FilterConfig{}, FilterSpecMask{}};
    const auto big = ev.measure(FilterSizing{40e-12, 20e-12, 10e-12},
                                OtaModelKind::behavioural);
    const auto small = ev.measure(FilterSizing{8e-12, 4e-12, 10e-12},
                                  OtaModelKind::behavioural);
    ASSERT_TRUE(big.valid && small.valid);
    EXPECT_GT(small.fc, big.fc);
}

TEST(Filter, SpecMaskLogic) {
    FilterSpecMask mask;
    FilterPerformance perf;
    perf.valid = true;
    perf.fc = mask.fc_target;
    perf.worst_passband_dev_db = 0.2;
    perf.stopband_atten_db = mask.min_stop_atten_db + 5.0;
    EXPECT_TRUE(perf.meets(mask));
    perf.fc = mask.fc_target * 2.0;
    EXPECT_FALSE(perf.meets(mask));
    perf.fc = mask.fc_target;
    perf.stopband_atten_db = mask.min_stop_atten_db - 1.0;
    EXPECT_FALSE(perf.meets(mask));
    perf.valid = false;
    EXPECT_FALSE(perf.meets(mask));
}

TEST(FilterProblem, ObjectivesAreMinimised) {
    FilterProblem problem{FilterConfig{}, FilterSpecMask{}};
    EXPECT_EQ(problem.parameters().size(), 3u);
    EXPECT_EQ(problem.objectives()[0].dir, moo::Direction::minimize);
    const auto objs = problem.evaluate(FilterSizing{}.to_vector());
    ASSERT_EQ(objs.size(), 2u);
    EXPECT_GE(objs[0], 0.0); // relative cutoff error
}

TEST(Filter, BehaviouralYieldHighForCenteredDesign) {
    // A design tuned to the mask centre should survive small OTA variation.
    FilterConfig cfg;
    FilterSpecMask mask;
    const FilterEvaluator ev{cfg, mask};
    // Caps that put fc near 100 kHz for R = 47k (the problem's own
    // physics: sqrt(c1*c2) ~ 1/(2 pi R fc) ~ 34 pF with c1/c2 = 2).
    const FilterSizing sizing{48e-12, 24e-12, 8e-12};
    const auto perf = ev.measure(sizing, OtaModelKind::behavioural);
    ASSERT_TRUE(perf.valid);
    if (perf.meets(mask)) {
        FilterVariation var;
        Rng rng(5);
        const auto yield = filter_yield_behavioural(ev, sizing, var, 60, rng);
        EXPECT_GT(yield.yield, 0.9);
    }
}

} // namespace
