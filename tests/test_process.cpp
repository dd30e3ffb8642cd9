// Unit tests for src/process: nominal card, variation spec and the Monte
// Carlo sampler (including the Pelgrom area law).

#include <gtest/gtest.h>

#include <cmath>

#include "process/process_card.hpp"
#include "process/sampler.hpp"
#include "process/variation.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace ypm;
using namespace ypm::process;

TEST(ProcessCard, C35NominalValuesAreSane) {
    const ProcessCard card = ProcessCard::c35();
    EXPECT_DOUBLE_EQ(card.vdd, 3.3);
    EXPECT_GT(card.nmos.kp, card.pmos.kp); // electrons faster than holes
    EXPECT_GT(card.pmos.vth0, card.nmos.vth0);
    EXPECT_NEAR(card.nmos.tox, 7.6e-9, 1e-12);
}

TEST(ProcessCard, CoxFollowsFromTox) {
    MosModelParams p;
    p.tox = 7.6e-9;
    EXPECT_NEAR(p.cox(), 3.45e-11 / 7.6e-9, 1e-6);
    p.tox = 3.8e-9;
    EXPECT_NEAR(p.cox(), 2.0 * 3.45e-11 / 7.6e-9, 1e-5);
}

TEST(Sampler, SampleIsDeterministicInRng) {
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    const std::vector<MosGeometry> devs = {{"m1", false, 20e-6, 1e-6},
                                           {"m3", true, 35e-6, 2e-6}};
    Rng a(42), b(42);
    const Realization ra = sampler.sample(a, devs);
    const Realization rb = sampler.sample(b, devs);
    EXPECT_DOUBLE_EQ(ra.global.dvth_n, rb.global.dvth_n);
    EXPECT_DOUBLE_EQ(ra.local.at("m1").dvth, rb.local.at("m1").dvth);
    EXPECT_DOUBLE_EQ(ra.local.at("m3").kp_scale, rb.local.at("m3").kp_scale);
}

TEST(Sampler, GlobalSpreadMatchesSigma) {
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    Rng rng(7);
    const std::vector<MosGeometry> none;
    double sum = 0.0, sum2 = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const Realization r = sampler.sample(rng, none);
        sum += r.global.dvth_n;
        sum2 += r.global.dvth_n * r.global.dvth_n;
    }
    const double mean = sum / n;
    const double sd = std::sqrt(sum2 / n - mean * mean);
    EXPECT_NEAR(mean, 0.0, 5e-4);
    EXPECT_NEAR(sd, sampler.spec().global.sigma_vth_n, 6e-4);
}

TEST(Sampler, PelgromAreaScaling) {
    // sigma(dVth) must scale as 1/sqrt(WL): quadruple the area, halve sigma.
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    const std::vector<MosGeometry> devs = {{"small", false, 10e-6, 1e-6},
                                           {"big", false, 40e-6, 1e-6}};
    Rng rng(11);
    double s_small = 0.0, s_big = 0.0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) {
        const Realization r = sampler.sample(rng, devs);
        s_small += r.local.at("small").dvth * r.local.at("small").dvth;
        s_big += r.local.at("big").dvth * r.local.at("big").dvth;
    }
    const double ratio = std::sqrt(s_small / n) / std::sqrt(s_big / n);
    EXPECT_NEAR(ratio, 2.0, 0.12);
}

TEST(Sampler, DeltaForCombinesGlobalAndLocal) {
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    const std::vector<MosGeometry> devs = {{"m1", false, 20e-6, 1e-6}};
    Rng rng(3);
    const Realization r = sampler.sample(rng, devs);
    const MosDelta total = r.delta_for("m1", false);
    EXPECT_NEAR(total.dvth, r.global.dvth_n + r.local.at("m1").dvth, 1e-15);
    EXPECT_NEAR(total.kp_scale,
                r.global.kp_scale_n * r.local.at("m1").kp_scale, 1e-15);
    // Unknown device: global only.
    const MosDelta global_only = r.delta_for("nonexistent", false);
    EXPECT_DOUBLE_EQ(global_only.dvth, r.global.dvth_n);
}

TEST(Sampler, PolaritySelectsCorrectGlobals) {
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    Rng rng(5);
    const Realization r = sampler.sample(rng, {});
    EXPECT_DOUBLE_EQ(r.delta_for("x", false).dvth, r.global.dvth_n);
    EXPECT_DOUBLE_EQ(r.delta_for("x", true).dvth, r.global.dvth_p);
}

TEST(Sampler, RejectsBadGeometry) {
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    Rng rng(1);
    const std::vector<MosGeometry> bad = {{"m1", false, 0.0, 1e-6}};
    EXPECT_THROW((void)sampler.sample(rng, bad), InvalidInputError);
}

TEST(Sampler, ToxVariationMovesCoxInversely) {
    // cox_scale must be anti-correlated with the tox draw: thicker oxide,
    // smaller Cox. Verified statistically via the mean of 1/cox_scale - 1.
    const ProcessSampler sampler(ProcessCard::c35(), VariationSpec::c35());
    Rng rng(13);
    int above = 0, below = 0;
    for (int i = 0; i < 2000; ++i) {
        const Realization r = sampler.sample(rng, {});
        if (r.global.cox_scale > 1.0) ++above;
        else ++below;
    }
    // Symmetric-ish distribution around 1.
    EXPECT_GT(above, 700);
    EXPECT_GT(below, 700);
}

} // namespace
