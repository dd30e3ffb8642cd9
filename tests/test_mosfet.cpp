// Unit tests for the EKV-style MOSFET model: region classification,
// square-law limits, derivative consistency (the property the Newton solver
// relies on), polarity symmetry, source/drain swap and process deltas.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "process/process_card.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/circuit.hpp"
#include "spice/devices/mosfet.hpp"
#include "spice/devices/resistor.hpp"
#include "spice/devices/sources.hpp"
#include "util/error.hpp"

namespace {

using namespace ypm;
using namespace ypm::spice;

process::MosModelParams nmos_params() { return process::ProcessCard::c35().nmos; }
process::MosModelParams pmos_params() { return process::ProcessCard::c35().pmos; }

Mosfet make_nmos(double w = 20e-6, double l = 1e-6) {
    return Mosfet("m1", 1, 2, 3, 4, Mosfet::Type::nmos, nmos_params(), w, l);
}

TEST(Mosfet, RejectsNonPositiveGeometry) {
    EXPECT_THROW(Mosfet("m", 1, 2, 3, 4, Mosfet::Type::nmos, nmos_params(), 0.0,
                        1e-6),
                 InvalidInputError);
    EXPECT_THROW(make_nmos().set_geometry(1e-6, -1.0), InvalidInputError);
}

TEST(Mosfet, RegionClassification) {
    const Mosfet m = make_nmos();
    // Cutoff: VGS well below threshold.
    EXPECT_EQ(m.evaluate(1.0, 0.0, 0.0, 0.0).region, Mosfet::Region::cutoff);
    // Saturation: strong inversion, VDS > VDSAT.
    EXPECT_EQ(m.evaluate(2.0, 1.2, 0.0, 0.0).region, Mosfet::Region::saturation);
    // Triode: strong inversion, tiny VDS.
    EXPECT_EQ(m.evaluate(0.05, 2.0, 0.0, 0.0).region, Mosfet::Region::triode);
}

TEST(Mosfet, SquareLawInStrongInversion) {
    // In saturation the EKV interpolation approaches Id = beta/(2n)*vov^2.
    const Mosfet m = make_nmos(20e-6, 1e-6);
    const auto& p = nmos_params();
    const double vov = 0.6;
    const double vgs = p.vth0 + vov;
    const auto op = m.evaluate(2.5, vgs, 0.0, 0.0);
    const double beta = p.kp * 20.0;
    const double lambda = p.lambda_l / 1e-6;
    const double expected = beta / (2.0 * p.nfac) * vov * vov * (1.0 + lambda * 2.5);
    EXPECT_NEAR(op.id, expected, expected * 0.08);
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
    // One decade of current per n*Vt*ln(10) of gate drive below threshold.
    const Mosfet m = make_nmos();
    const auto& p = nmos_params();
    const double vt = 0.02585;
    const double step = p.nfac * vt * std::log(10.0);
    const double vgs0 = p.vth0 - 0.25;
    const double i0 = m.evaluate(1.0, vgs0, 0.0, 0.0).id;
    const double i1 = m.evaluate(1.0, vgs0 + step, 0.0, 0.0).id;
    EXPECT_NEAR(i1 / i0, 10.0, 1.5);
}

TEST(Mosfet, CurrentScalesWithAspectRatio) {
    const Mosfet narrow = make_nmos(10e-6, 1e-6);
    const Mosfet wide = make_nmos(40e-6, 1e-6);
    const double i_narrow = narrow.evaluate(2.0, 1.2, 0.0, 0.0).id;
    const double i_wide = wide.evaluate(2.0, 1.2, 0.0, 0.0).id;
    EXPECT_NEAR(i_wide / i_narrow, 4.0, 0.05);
}

TEST(Mosfet, ChannelLengthModulation) {
    // gds > 0 in saturation, and shorter channels have more of it.
    const Mosfet short_l = make_nmos(20e-6, 0.35e-6);
    const Mosfet long_l = make_nmos(20e-6, 4e-6);
    const auto op_s = short_l.evaluate(2.0, 1.2, 0.0, 0.0);
    const auto op_l = long_l.evaluate(2.0, 1.2, 0.0, 0.0);
    EXPECT_GT(op_s.gds(), 0.0);
    EXPECT_GT(op_l.gds(), 0.0);
    EXPECT_GT(op_s.gds() / op_s.id, op_l.gds() / op_l.id);
}

TEST(Mosfet, BodyEffectRaisesThreshold) {
    const Mosfet m = make_nmos();
    const auto no_bias = m.evaluate(2.0, 1.2, 0.0, 0.0);
    const auto reverse = m.evaluate(2.0, 1.2, 0.0, -1.0); // vsb = 1 V
    EXPECT_GT(reverse.vth, no_bias.vth);
    EXPECT_LT(reverse.id, no_bias.id);
    EXPECT_GT(no_bias.gmb(), 0.0);
}

TEST(Mosfet, PmosMirrorsNmos) {
    const Mosfet n = make_nmos();
    Mosfet p("mp", 1, 2, 3, 4, Mosfet::Type::pmos, nmos_params(), 20e-6, 1e-6);
    // Same model card, mirrored bias: currents must mirror exactly.
    const auto opn = n.evaluate(1.5, 1.2, 0.0, 0.0);
    const auto opp = p.evaluate(-1.5, -1.2, 0.0, 0.0);
    EXPECT_NEAR(opp.id, -opn.id, std::fabs(opn.id) * 1e-9);
    EXPECT_NEAR(opp.gm(), opn.gm(), opn.gm() * 1e-9);
}

TEST(Mosfet, ZeroVdsGivesZeroCurrent) {
    const Mosfet m = make_nmos();
    const auto op = m.evaluate(0.0, 1.5, 0.0, 0.0);
    EXPECT_NEAR(op.id, 0.0, 1e-12);
}

TEST(Mosfet, SourceDrainSwapAntisymmetry) {
    // Id(vd, vs) = -Id(vs, vd) with gate/bulk fixed (symmetric device).
    const Mosfet m = make_nmos();
    const auto fwd = m.evaluate(1.0, 1.8, 0.3, 0.0);
    const auto rev = m.evaluate(0.3, 1.8, 1.0, 0.0);
    EXPECT_NEAR(fwd.id, -rev.id, std::fabs(fwd.id) * 1e-9);
}

TEST(Mosfet, DeltaShiftsThresholdAndCurrent) {
    Mosfet m = make_nmos();
    const double base = m.evaluate(2.0, 1.2, 0.0, 0.0).id;
    process::MosDelta d;
    d.dvth = 0.05; // raise threshold
    m.apply_delta(d);
    EXPECT_LT(m.evaluate(2.0, 1.2, 0.0, 0.0).id, base);
    d.dvth = 0.0;
    d.kp_scale = 1.1;
    m.apply_delta(d);
    EXPECT_NEAR(m.evaluate(2.0, 1.2, 0.0, 0.0).id, base * 1.1, base * 0.01);
}

TEST(Mosfet, CapacitancesByRegion) {
    const Mosfet m = make_nmos();
    const auto sat = m.evaluate(2.0, 1.2, 0.0, 0.0);
    const auto triode = m.evaluate(0.05, 2.0, 0.0, 0.0);
    const auto off = m.evaluate(1.0, 0.0, 0.0, 0.0);
    // Saturation: cgs ~ 2/3 WLCox dominates cgd (overlap only).
    EXPECT_GT(sat.cgs, sat.cgd);
    // Triode: roughly balanced split.
    EXPECT_NEAR(triode.cgs, triode.cgd, triode.cgs * 0.1);
    // Cutoff: gate-bulk cap appears.
    EXPECT_GT(off.cgb, 0.0);
    EXPECT_DOUBLE_EQ(sat.cgb, 0.0);
    // Junctions always present.
    EXPECT_GT(sat.cdb, 0.0);
    EXPECT_GT(sat.csb, 0.0);
}

// Property test: analytic partials match finite differences everywhere the
// Newton solver will roam, including reverse (vds < 0) operation and both
// polarities.
class MosfetDerivatives
    : public ::testing::TestWithParam<std::tuple<double, double, double, int>> {};

TEST_P(MosfetDerivatives, MatchFiniteDifferences) {
    const auto [vg, vd, vb, type_i] = GetParam();
    const bool pmos = type_i == 1;
    const Mosfet m("m", 1, 2, 3, 4,
                   pmos ? Mosfet::Type::pmos : Mosfet::Type::nmos,
                   pmos ? pmos_params() : nmos_params(), 25e-6, 0.8e-6);
    const double vs = 0.0;
    const auto op = m.evaluate(vd, vg, vs, vb);

    const double h = 1e-7;
    const double d_dg =
        (m.evaluate(vd, vg + h, vs, vb).id - m.evaluate(vd, vg - h, vs, vb).id) /
        (2.0 * h);
    const double d_dd =
        (m.evaluate(vd + h, vg, vs, vb).id - m.evaluate(vd - h, vg, vs, vb).id) /
        (2.0 * h);
    const double d_ds =
        (m.evaluate(vd, vg, vs + h, vb).id - m.evaluate(vd, vg, vs - h, vb).id) /
        (2.0 * h);
    const double d_db =
        (m.evaluate(vd, vg, vs, vb + h).id - m.evaluate(vd, vg, vs, vb - h).id) /
        (2.0 * h);

    const double scale = std::max({std::fabs(d_dg), std::fabs(d_dd),
                                   std::fabs(d_ds), std::fabs(d_db), 1e-9});
    EXPECT_NEAR(op.g_dg, d_dg, scale * 2e-3);
    EXPECT_NEAR(op.g_dd, d_dd, scale * 2e-3);
    EXPECT_NEAR(op.g_ds, d_ds, scale * 2e-3);
    EXPECT_NEAR(op.g_db, d_db, scale * 2e-3);
    // KCL shift invariance: partials sum to zero.
    EXPECT_NEAR(op.g_dg + op.g_dd + op.g_ds + op.g_db, 0.0, scale * 4e-3);
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetDerivatives,
    ::testing::Combine(::testing::Values(-1.5, 0.3, 0.8, 1.5), // vg
                       ::testing::Values(-1.2, -0.2, 0.1, 1.0, 2.5), // vd
                       ::testing::Values(-0.5, 0.0),           // vb
                       ::testing::Values(0, 1)));              // nmos/pmos

TEST(Mosfet, DiodeConnectedSolvesInCircuit) {
    // NMOS with gate tied to drain, fed by a current source: VGS settles where
    // Id = Ibias; a classic Newton workout.
    Circuit c;
    const NodeId g = c.node("g");
    c.add<CurrentSource>("ib", ground, g, 50e-6); // push 50 uA into g
    c.add<Mosfet>("m1", g, g, ground, ground, Mosfet::Type::nmos, nmos_params(),
                  20e-6, 1e-6);
    const Solution op = solve_op(c);
    const auto* m = dynamic_cast<const Mosfet*>(c.find_device("m1"));
    const auto info = m->op_info(op);
    EXPECT_NEAR(info.id, 50e-6, 1e-9);
    EXPECT_GT(op.voltage(g), nmos_params().vth0 * 0.8);
    EXPECT_LT(op.voltage(g), 1.5);
}

TEST(Mosfet, CommonSourceAmplifierDcTransfer) {
    // NMOS with resistive load: output falls as input rises.
    Circuit c;
    const NodeId vdd = c.node("vdd");
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vdd", vdd, ground, 3.3);
    auto& vin = c.add<VoltageSource>("vin", in, ground, 0.8);
    c.add<Resistor>("rd", vdd, out, 20e3);
    c.add<Mosfet>("m1", out, in, ground, ground, Mosfet::Type::nmos,
                  nmos_params(), 10e-6, 1e-6);
    const Solution op1 = solve_op(c);
    vin.set_dc(1.0);
    const Solution op2 = solve_op(c);
    EXPECT_LT(op2.voltage(out), op1.voltage(out));
    EXPECT_GT(op1.voltage(out), 0.0);
    EXPECT_LT(op1.voltage(out), 3.3);
}

} // namespace
