// Unit tests for the simulator substrate: MNA stamps via known linear
// circuits, the Newton DC solver, AC analysis against closed-form transfer
// functions (every device's recorded AC stamp is pinned here or in its own
// device suite) and the Bode/lowpass measurement helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "process/process_card.hpp"
#include "spice/ac_terms.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/circuit.hpp"
#include "spice/devices/capacitor.hpp"
#include "spice/devices/inductor.hpp"
#include "spice/devices/mosfet.hpp"
#include "spice/devices/resistor.hpp"
#include "spice/devices/sources.hpp"
#include "spice/measure.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace {

using namespace ypm;
using namespace ypm::spice;

// ---------------------------------------------------------------- circuit

TEST(Circuit, NodeNamingAndGroundAliases) {
    Circuit c;
    EXPECT_EQ(c.node("0"), ground);
    EXPECT_EQ(c.node("gnd"), ground);
    EXPECT_EQ(c.node("GND"), ground);
    const NodeId a = c.node("n1");
    EXPECT_EQ(c.node("N1"), a); // case-insensitive
    EXPECT_NE(c.node("n2"), a);
    EXPECT_EQ(c.node_count(), 2u);
}

TEST(Circuit, FindNodeAndDevice) {
    Circuit c;
    const NodeId a = c.node("a");
    c.add<Resistor>("r1", a, ground, 1e3);
    EXPECT_TRUE(c.find_node("a").has_value());
    EXPECT_FALSE(c.find_node("zz").has_value());
    EXPECT_NE(c.find_device("R1"), nullptr); // case-insensitive
    EXPECT_EQ(c.find_device("r2"), nullptr);
}

TEST(Circuit, DuplicateDeviceNameRejected) {
    Circuit c;
    c.add<Resistor>("r1", c.node("a"), ground, 1e3);
    EXPECT_THROW(c.add<Resistor>("R1", c.node("b"), ground, 2e3),
                 InvalidInputError);
}

TEST(Circuit, FinalizeAllocatesBranches) {
    Circuit c;
    c.add<VoltageSource>("v1", c.node("a"), ground, 1.0);
    c.add<Inductor>("l1", c.node("a"), c.node("b"), 1e-3);
    c.add<Resistor>("r1", c.node("b"), ground, 1e3);
    c.finalize();
    EXPECT_EQ(c.branch_count(), 2u);
    EXPECT_EQ(c.unknowns(), 2u + 2u);
}

TEST(Circuit, DeviceValidationErrors) {
    Circuit c;
    EXPECT_THROW(c.add<Resistor>("r", c.node("a"), ground, 0.0), InvalidInputError);
    EXPECT_THROW(c.add<Resistor>("r", c.node("a"), ground, -5.0), InvalidInputError);
    EXPECT_THROW(c.add<Capacitor>("c", c.node("a"), ground, -1e-12),
                 InvalidInputError);
    EXPECT_THROW(c.add<Inductor>("l", c.node("a"), ground, 0.0), InvalidInputError);
}

// --------------------------------------------------------------- DC basics

TEST(Dc, ResistorDivider) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId mid = c.node("mid");
    c.add<VoltageSource>("v1", in, ground, 10.0);
    c.add<Resistor>("r1", in, mid, 1e3);
    c.add<Resistor>("r2", mid, ground, 3e3);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(mid), 7.5, 1e-6);
    EXPECT_NEAR(op.voltage(in), 10.0, 1e-6);
}

TEST(Dc, VoltageSourceBranchCurrentConvention) {
    // 10 V across 1 kOhm: 10 mA flows out of the + terminal through the
    // circuit, so the branch current (into the + terminal through the
    // source) is -10 mA.
    Circuit c;
    const NodeId in = c.node("in");
    auto& v1 = c.add<VoltageSource>("v1", in, ground, 10.0);
    c.add<Resistor>("r1", in, ground, 1e3);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.branch_current(v1.current_branch()), -10e-3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
    // 1 mA pulled from ground, pushed into node a loaded by 2 kOhm: +2 V.
    Circuit c;
    const NodeId a = c.node("a");
    c.add<CurrentSource>("i1", ground, a, 1e-3);
    c.add<Resistor>("r1", a, ground, 2e3);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(a), 2.0, 1e-6);
}

TEST(Dc, InductorIsShort) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId mid = c.node("mid");
    c.add<VoltageSource>("v1", in, ground, 5.0);
    c.add<Inductor>("l1", in, mid, 1e-3);
    c.add<Resistor>("r1", mid, ground, 1e3);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(mid), 5.0, 1e-9);
    // Inductor branch carries the full 5 mA.
    const auto* l = dynamic_cast<const Inductor*>(c.find_device("l1"));
    EXPECT_NEAR(op.branch_current(l->current_branch()), 5e-3, 1e-9);
}

TEST(Dc, CapacitorIsOpen) {
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId mid = c.node("mid");
    c.add<VoltageSource>("v1", in, ground, 5.0);
    c.add<Resistor>("r1", in, mid, 1e3);
    c.add<Capacitor>("c1", mid, ground, 1e-9);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(mid), 5.0, 1e-6); // no DC current -> no drop
}

TEST(Dc, WarmStartConverges) {
    Circuit c;
    const NodeId in = c.node("in");
    c.add<VoltageSource>("v1", in, ground, 3.0);
    c.add<Resistor>("r1", in, ground, 1e3);
    const DcSolver solver;
    const DcResult cold = solver.solve(c);
    ASSERT_TRUE(cold.converged);
    const DcResult warm = solver.solve(c, cold.solution);
    EXPECT_TRUE(warm.converged);
    EXPECT_LE(warm.iterations, cold.iterations);
}

TEST(Dc, EmptyishCircuitStillSolves) {
    Circuit c;
    c.add<Resistor>("r1", c.node("a"), ground, 1e3);
    const Solution op = solve_op(c); // floating-ish node held by gmin
    EXPECT_NEAR(op.voltage(*c.find_node("a")), 0.0, 1e-6);
}

/// Stamps nothing; remembers the source scale of its last DC stamp.
class SourceScaleProbe final : public Device {
public:
    using Device::Device;
    void stamp_dc(RealStamper& s, const Solution&) const override {
        last_scale = s.source_scale();
    }
    void stamp_ac(AcTermRecorder&, const Solution&) const override {}
    mutable double last_scale = 0.0;
};

TEST(Dc, SourceSteppingEndsAtFullSources) {
    // A 10 V divider from a cold start: damped Newton moves node voltages
    // at most max_step per iteration, so four iterations cannot climb to
    // 10 V, while each 1 V source step settles within them.
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId mid = c.node("mid");
    c.add<VoltageSource>("v1", in, ground, 10.0);
    c.add<Resistor>("r1", in, mid, 1e3);
    c.add<Resistor>("r2", mid, ground, 1e3);
    const auto& probe = c.add<SourceScaleProbe>("probe");

    DcOptions options;
    options.gmin_stepping = false;
    options.max_iterations = 4;
    const DcResult r = DcSolver(options).solve(c);
    ASSERT_TRUE(r.converged);
    EXPECT_EQ(r.method, "source-stepping");
    EXPECT_EQ(probe.last_scale, 1.0);
    EXPECT_NEAR(r.solution.voltage(mid), 5.0, 1e-6);
}

// ---------------------------------------------------------------------- AC

TEST(Ac, RcLowpassPole) {
    // R = 1k, C = 1u -> fc = 1/(2 pi RC) ~ 159.15 Hz.
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("v1", in, ground, 0.0, 1.0);
    c.add<Resistor>("r1", in, out, 1e3);
    c.add<Capacitor>("c1", out, ground, 1e-6);
    const Solution op = solve_op(c);

    const double fc = 1.0 / (2.0 * mathx::pi * 1e3 * 1e-6);
    const AcResult ac = run_ac(c, op, {fc / 100.0, fc, fc * 100.0});
    const auto h = ac.transfer(out, in);
    EXPECT_NEAR(std::abs(h[0]), 1.0, 1e-3);
    EXPECT_NEAR(std::abs(h[1]), 1.0 / std::sqrt(2.0), 1e-3);
    EXPECT_NEAR(mathx::deg_from_rad(std::arg(h[1])), -45.0, 0.5);
    EXPECT_NEAR(std::abs(h[2]), 0.01, 2e-4);
}

TEST(Ac, RlHighpass) {
    // L = 1 mH, R = 100 -> fc = R/(2 pi L) ~ 15.9 kHz; out across L.
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("v1", in, ground, 0.0, 1.0);
    c.add<Resistor>("r1", in, out, 100.0);
    c.add<Inductor>("l1", out, ground, 1e-3);
    const Solution op = solve_op(c);

    const double fc = 100.0 / (2.0 * mathx::pi * 1e-3);
    const AcResult ac = run_ac(c, op, {fc / 100.0, fc, fc * 100.0});
    const auto h = ac.transfer(out, in);
    EXPECT_NEAR(std::abs(h[0]), 0.01, 2e-4);
    EXPECT_NEAR(std::abs(h[1]), 1.0 / std::sqrt(2.0), 1e-3);
    EXPECT_NEAR(std::abs(h[2]), 1.0, 1e-3);
}

TEST(Ac, SeriesRlcResonance) {
    // R = 10, L = 1 mH, C = 1 uF: f0 = 1/(2 pi sqrt(LC)) ~ 5.03 kHz,
    // at resonance the full source voltage appears across R.
    Circuit c;
    const NodeId in = c.node("in");
    const NodeId m = c.node("m");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("v1", in, ground, 0.0, 1.0);
    c.add<Inductor>("l1", in, m, 1e-3);
    c.add<Capacitor>("c1", m, out, 1e-6);
    c.add<Resistor>("r1", out, ground, 10.0);
    const Solution op = solve_op(c);
    const double f0 = 1.0 / (2.0 * mathx::pi * std::sqrt(1e-3 * 1e-6));
    const AcResult ac = run_ac(c, op, {f0});
    const auto h = ac.transfer(out, in);
    EXPECT_NEAR(std::abs(h[0]), 1.0, 1e-3);
}

TEST(Ac, AcMagnitudeAndPhaseOfSource) {
    Circuit c;
    const NodeId in = c.node("in");
    c.add<VoltageSource>("v1", in, ground, 1.0, 2.0, 90.0);
    c.add<Resistor>("r1", in, ground, 1e3);
    const Solution op = solve_op(c);
    const AcResult ac = run_ac(c, op, {1e3});
    const auto v = ac.points[0].voltage(in);
    EXPECT_NEAR(v.real(), 0.0, 1e-9);
    EXPECT_NEAR(v.imag(), 2.0, 1e-9);
}

/// |H| and arg(H) (degrees) of `h` against the closed form `expected`.
void expect_response(std::complex<double> h, std::complex<double> expected) {
    EXPECT_NEAR(std::abs(h), std::abs(expected), 1e-9 * std::abs(expected));
    EXPECT_NEAR(mathx::deg_from_rad(std::arg(h)),
                mathx::deg_from_rad(std::arg(expected)), 1e-6);
}

TEST(Ac, CurrentSourcePhasor) {
    // 2 mA at 60 degrees pushed into 1 kOhm: V(a) = 2 V at 60 degrees.
    Circuit c;
    const NodeId a = c.node("a");
    c.add<CurrentSource>("i1", ground, a, 0.0, 2e-3, 60.0);
    c.add<Resistor>("r1", a, ground, 1e3);
    const Solution op = solve_op(c);
    const auto v = run_ac(c, op, {1e3}).points[0].voltage(a);
    expect_response(v, std::polar(2.0, mathx::rad_from_deg(60.0)));
}

TEST(Ac, MosfetCommonSourceGain) {
    // Low-frequency gain of a resistively loaded common-source stage:
    // -gm / (gds + 1/RD), with gm and gds from the operating point.
    Circuit c;
    const NodeId vdd = c.node("vdd");
    const NodeId g = c.node("g");
    const NodeId d = c.node("d");
    c.add<VoltageSource>("vsup", vdd, ground, 3.3);
    c.add<VoltageSource>("vg", g, ground, 1.0, 1.0);
    c.add<Resistor>("rd", vdd, d, 10e3);
    const auto& m1 =
        c.add<Mosfet>("m1", d, g, ground, ground, Mosfet::Type::nmos,
                      process::ProcessCard::c35().nmos, 10e-6, 1e-6);
    const Solution op = solve_op(c);
    const Mosfet::OpInfo info = m1.op_info(op);
    ASSERT_EQ(info.region, Mosfet::Region::saturation);
    const double gain = -info.gm() / (info.gds() + 1.0 / 10e3);
    ASSERT_LT(gain, -1.0);

    const auto h = run_ac(c, op, {1.0}).transfer(d, g);
    EXPECT_NEAR(h[0].real(), gain, 1e-6 * std::fabs(gain));
    EXPECT_NEAR(h[0].imag(), 0.0, 1e-6 * std::fabs(gain));
}

TEST(AcTerms, PoleTermReplaysTheDirectDivision) {
    // One branch row over one node: the pole term lands at A(1, 0).
    const double a0 = 707.9457843841379;
    const double wp = 2.0 * mathx::pi * 1e4;
    AcTermRecorder rec(1, 2);
    rec.mat_branch_row_pole(0, 1, -a0, wp);
    for (double omega : {1.0, 1e3, wp, 3.7e5, 1e9}) {
        std::complex<double> a[4] = {};
        rec.replay_matrix(omega, a);
        const std::complex<double> direct =
            -(a0 / std::complex<double>(1.0, omega / wp));
        EXPECT_EQ(std::memcmp(&a[2], &direct, sizeof direct), 0)
            << "omega " << omega;
    }
}

TEST(Ac, RejectsNonPositiveFrequency) {
    Circuit c;
    c.add<Resistor>("r1", c.node("a"), ground, 1.0);
    const Solution op = solve_op(c);
    EXPECT_THROW((void)run_ac(c, op, {0.0}), InvalidInputError);
}

TEST(Ac, LogSweepCoverage) {
    const auto f = log_sweep(10.0, 1e6, 10);
    EXPECT_DOUBLE_EQ(f.front(), 10.0);
    EXPECT_DOUBLE_EQ(f.back(), 1e6);
    EXPECT_GE(f.size(), 51u); // 5 decades * 10 + 1
    for (std::size_t i = 1; i < f.size(); ++i) EXPECT_GT(f[i], f[i - 1]);
}

// --------------------------------------------------------------- measure

std::vector<std::complex<double>> single_pole(const std::vector<double>& freqs,
                                              double a0, double fp) {
    std::vector<std::complex<double>> h;
    for (double f : freqs) h.push_back(a0 / std::complex<double>(1.0, f / fp));
    return h;
}

TEST(Measure, SinglePoleMetrics) {
    const auto freqs = log_sweep(1.0, 1e9, 20);
    const double a0 = 1000.0, fp = 1e3; // 60 dB, GBW = 1 MHz
    const auto h = single_pole(freqs, a0, fp);
    const BodeMetrics m = bode_metrics(freqs, h);
    EXPECT_NEAR(m.dc_gain_db, 60.0, 0.01);
    EXPECT_NEAR(m.f3db, fp, fp * 0.03);
    EXPECT_NEAR(m.unity_freq, 1e6, 1e4);
    // Single pole: phase at crossover ~ -89.94 deg -> PM ~ 90 deg.
    EXPECT_NEAR(m.phase_margin_deg, 90.0, 0.5);
    EXPECT_NEAR(m.gbw, 1e6, 3e4);
}

TEST(Measure, TwoPolePhaseMargin) {
    // Second pole at a0*fp1: the true crossover sits below it. Solving
    // |H| = 1 gives f/f2 = sqrt((sqrt(5)-1)/2) ~ 0.786, so
    // PM ~ 90 - atan(0.786)*180/pi ~ 51.8 deg.
    const auto freqs = log_sweep(1.0, 1e9, 30);
    const double a0 = 100.0, fp1 = 1e3;
    const double f2 = a0 * fp1;
    std::vector<std::complex<double>> h;
    for (double f : freqs)
        h.push_back(a0 / (std::complex<double>(1.0, f / fp1) *
                          std::complex<double>(1.0, f / f2)));
    const BodeMetrics m = bode_metrics(freqs, h);
    EXPECT_NEAR(m.phase_margin_deg, 51.8, 2.0);
}

TEST(Measure, NoUnityCrossingGivesNan) {
    const auto freqs = log_sweep(1.0, 1e6, 10);
    const auto h = single_pole(freqs, 0.5, 1e3); // always below unity
    const BodeMetrics m = bode_metrics(freqs, h);
    EXPECT_TRUE(std::isnan(m.unity_freq));
    EXPECT_TRUE(std::isnan(m.phase_margin_deg));
}

TEST(Measure, PhaseUnwrappingIsContinuous) {
    // Three coincident poles wrap the raw atan2 phase past -180.
    const auto freqs = log_sweep(1.0, 1e8, 20);
    std::vector<std::complex<double>> h;
    for (double f : freqs) {
        const std::complex<double> pole(1.0, f / 1e3);
        h.push_back(1000.0 / (pole * pole * pole));
    }
    const auto phase = phase_deg_unwrapped(h);
    for (std::size_t i = 1; i < phase.size(); ++i)
        EXPECT_LT(std::fabs(phase[i] - phase[i - 1]), 90.0);
    EXPECT_LT(phase.back(), -250.0); // approaches -270
}

TEST(Measure, LowpassMetricsButterworth) {
    const auto freqs = log_sweep(1e3, 1e8, 30);
    const double f0 = 1e6;
    std::vector<std::complex<double>> h;
    for (double f : freqs) {
        const double w = f / f0;
        // 2nd-order Butterworth: H = 1 / (1 + j sqrt(2) w - w^2)
        h.push_back(1.0 / std::complex<double>(1.0 - w * w, std::sqrt(2.0) * w));
    }
    const LowpassMetrics m = lowpass_metrics(freqs, h, 1e7);
    EXPECT_NEAR(m.passband_gain_db, 0.0, 0.01);
    EXPECT_NEAR(m.fc, f0, f0 * 0.03);
    EXPECT_NEAR(m.stopband_atten_db, 40.0, 1.0); // one decade out, 2nd order
}

TEST(Measure, RejectsBadSweep) {
    using CVec = std::vector<std::complex<double>>;
    EXPECT_THROW((void)bode_metrics(std::vector<double>{1.0}, CVec{{1.0, 0.0}}),
                 InvalidInputError);
    EXPECT_THROW((void)bode_metrics(std::vector<double>{2.0, 1.0},
                                    CVec{{1.0, 0.0}, {1.0, 0.0}}),
                 InvalidInputError);
}

// ------------------------------------------------------- bode sweep stop

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Feed h to bode_sweep_complete one point at a time, as ac_sweep_transfer
/// does, and check that bode_metrics over the stopped prefix equals it over
/// the whole of h in every field. Returns the length
/// of the prefix (h.size() when the rule never fired).
std::size_t stopped_length(const std::vector<double>& freqs,
                           const std::vector<std::complex<double>>& h) {
    const std::span<const std::complex<double>> all(h);
    std::size_t k = 1;
    while (k < h.size() && !bode_sweep_complete(all.first(k))) ++k;
    const BodeMetrics full = bode_metrics(freqs, h);
    const BodeMetrics cut =
        bode_metrics(std::span<const double>(freqs).first(k), all.first(k));
    EXPECT_TRUE(same_bits(cut.dc_gain_db, full.dc_gain_db)) << k;
    EXPECT_TRUE(same_bits(cut.unity_freq, full.unity_freq)) << k;
    EXPECT_TRUE(same_bits(cut.phase_margin_deg, full.phase_margin_deg)) << k;
    EXPECT_TRUE(same_bits(cut.f3db, full.f3db)) << k;
    EXPECT_TRUE(same_bits(cut.gbw, full.gbw)) << k;
    return k;
}

/// Index of the first point j >= 1 at or below 0 dB.
std::size_t first_at_or_below_0db(const std::vector<std::complex<double>>& h) {
    const auto mag = magnitude_db(h);
    std::size_t j = 1;
    while (j < mag.size() && mag[j] > 0.0) ++j;
    return j;
}

TEST(BodeSweepStop, StopsOnePointPastTheCrossings) {
    const auto freqs = log_sweep(10.0, 10e9, 12);
    const auto h = single_pole(freqs, 1000.0, 1e3);
    const std::size_t j = first_at_or_below_0db(h);
    EXPECT_EQ(stopped_length(freqs, h), j + 2);
    EXPECT_LT(j + 2, h.size());
}

TEST(BodeSweepStop, ExactZeroDbOnAGridPoint) {
    // |(0, -1)| is exactly 1, so point j reads exactly 0 dB and the unity
    // crossing interpolates to t = 1, landing on freqs[j]. The phase there
    // is lerp(phase[j], phase[j + 1], 0): NaN when point j + 1 is NaN, which
    // is why the rule waits for the point past j.
    std::size_t on_grid = 0;
    for (std::size_t ppd = 5; ppd <= 40; ++ppd) {
        const auto freqs = log_sweep(10.0, 10e9, ppd);
        auto h = single_pole(freqs, 1000.0, 1e3);
        const std::size_t j = first_at_or_below_0db(h);
        h[j] = {0.0, -1.0};
        EXPECT_EQ(magnitude_db(h)[j], 0.0);
        EXPECT_EQ(stopped_length(freqs, h), j + 2) << ppd;
        if (bode_metrics(freqs, h).unity_freq != freqs[j]) continue;
        ++on_grid;
        h[j + 1] = {std::numeric_limits<double>::quiet_NaN(), 0.0};
        EXPECT_EQ(stopped_length(freqs, h), h.size()) << ppd;
        EXPECT_TRUE(std::isnan(bode_metrics(freqs, h).phase_margin_deg)) << ppd;
    }
    EXPECT_GT(on_grid, 0u);
}

TEST(BodeSweepStop, DcGainBelow3dbStopsPastTheMinus3dbPoint) {
    // 1.58 dB at dc: unity (~660 Hz) comes before the -3 dB point (1 kHz).
    const auto freqs = log_sweep(10.0, 10e9, 12);
    const auto h = single_pole(freqs, 1.2, 1e3);
    const std::size_t k = stopped_length(freqs, h);
    ASSERT_LT(k, h.size());
    const BodeMetrics m = bode_metrics(freqs, h);
    EXPECT_LT(m.unity_freq, m.f3db);
    EXPECT_LT(m.f3db, freqs[k - 2]);
    EXPECT_GT(magnitude_db(h)[k - 3], m.dc_gain_db - 3.0103);
}

TEST(BodeSweepStop, NeverFiresWithoutPositiveDcGain) {
    const auto freqs = log_sweep(10.0, 10e9, 12);
    // Below unity throughout, exactly 0 dB at dc, and a resonance that
    // rises through 0 dB from below and falls back.
    std::vector<std::vector<std::complex<double>>> cases = {
        single_pole(freqs, 0.5, 1e3), single_pole(freqs, 1.0, 1e3)};
    std::vector<std::complex<double>> peak;
    for (double f : freqs) {
        const double w = f / 1e5;
        peak.push_back(0.9 / std::complex<double>(1.0 - w * w, w / 10.0));
    }
    cases.push_back(peak);
    for (const auto& h : cases) EXPECT_EQ(stopped_length(freqs, h), h.size());
}

TEST(BodeSweepStop, NeverFiresAfterANan) {
    const auto freqs = log_sweep(10.0, 10e9, 12);
    const auto clean = single_pole(freqs, 1000.0, 1e3);
    const std::size_t j = first_at_or_below_0db(clean);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t at : {std::size_t{0}, std::size_t{3}, j, j + 1}) {
        auto h = clean;
        h[at] = {nan, 0.0};
        EXPECT_EQ(stopped_length(freqs, h), h.size()) << at;
    }
}

TEST(BodeSweepStop, NeverFiresWithoutACrossing) {
    const auto freqs = log_sweep(10.0, 1e4, 12); // |H| >= 40 dB throughout
    const auto h = single_pole(freqs, 1000.0, 1e3);
    EXPECT_EQ(stopped_length(freqs, h), h.size());
}

TEST(BodeSweepStop, CrossingAtTheLastTwoPoints) {
    const auto full_freqs = log_sweep(10.0, 10e9, 12);
    const auto full_h = single_pole(full_freqs, 1000.0, 1e3);
    const std::size_t j = first_at_or_below_0db(full_h);
    // Crossing at the last point: no point past it, the rule never fires.
    // At the second-to-last: it fires on the last point, the whole sweep.
    for (std::size_t n : {j + 1, j + 2}) {
        const std::vector<double> freqs(full_freqs.begin(), full_freqs.begin() + n);
        const std::vector<std::complex<double>> h(full_h.begin(), full_h.begin() + n);
        EXPECT_EQ(stopped_length(freqs, h), n);
        EXPECT_EQ(bode_sweep_complete(h), n == j + 2);
    }
}

TEST(BodeSweepStop, RandomTwoPoleResponses) {
    const auto freqs = log_sweep(10.0, 10e9, 12);
    std::uint64_t state = 12345;
    const auto uniform = [&state](double lo, double hi) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return lo + (hi - lo) * static_cast<double>(state >> 11) * 0x1.0p-53;
    };
    for (int trial = 0; trial < 200; ++trial) {
        const double a0 = std::pow(10.0, uniform(-0.5, 5.0));
        const double fp1 = std::pow(10.0, uniform(1.0, 5.0));
        const double fp2 = fp1 * std::pow(10.0, uniform(0.0, 5.0));
        std::vector<std::complex<double>> h;
        for (double f : freqs)
            h.push_back(a0 / (std::complex<double>(1.0, f / fp1) *
                              std::complex<double>(1.0, f / fp2)));
        (void)stopped_length(freqs, h);
    }
}

} // namespace
