// Tests for the Verilog-A layer: the behavioural OTA device's electrical
// behaviour and the generated module text.

#include <gtest/gtest.h>

#include <cmath>

#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/circuit.hpp"
#include "spice/devices/resistor.hpp"
#include "spice/devices/sources.hpp"
#include "spice/measure.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "va/behav_ota_device.hpp"
#include "va/va_codegen.hpp"

namespace {

using namespace ypm;
using namespace ypm::spice;

TEST(BehaviouralOta, ValidatesSpec) {
    Circuit c;
    va::BehaviouralOtaSpec bad;
    bad.rout = 0.0;
    EXPECT_THROW(c.add<va::BehaviouralOta>("o", c.node("a"), c.node("b"),
                                           c.node("o"), bad),
                 InvalidInputError);
    bad.rout = 1e6;
    bad.f3db = -1.0;
    EXPECT_THROW(c.add<va::BehaviouralOta>("o2", c.node("a"), c.node("b"),
                                           c.node("o"), bad),
                 InvalidInputError);
}

TEST(BehaviouralOta, OpenLoopDcGain) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 1e-3);
    va::BehaviouralOtaSpec spec{40.0, 1e3, 1e3}; // A0 = 100, ro = 1k
    c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
    c.add<Resistor>("rl", out, ground, 1e9); // ~unloaded
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(out), 0.1, 1e-4); // 1 mV * 100
}

TEST(BehaviouralOta, OutputResistanceDividesWithLoad) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 1e-3);
    va::BehaviouralOtaSpec spec{40.0, 1e3, 1e3};
    c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
    c.add<Resistor>("rl", out, ground, 1e3); // equal to rout -> halve
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(out), 0.05, 1e-4);
}

TEST(BehaviouralOta, UnityFeedbackBuffer) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 1.0);
    va::BehaviouralOtaSpec spec{60.0, 1e4, 1e6};
    c.add<va::BehaviouralOta>("ota", inp, out, out, spec);
    c.add<Resistor>("rl", out, ground, 1e6);
    const Solution op = solve_op(c);
    // Buffer: out = A/(1+A) * in with loading; A = 1000.
    EXPECT_NEAR(op.voltage(out), 1.0, 5e-3);
}

TEST(BehaviouralOta, SinglePoleAcRollOff) {
    Circuit c;
    const NodeId inp = c.node("inp");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("vin", inp, ground, 0.0, 1.0);
    va::BehaviouralOtaSpec spec{40.0, 10e3, 1e3};
    c.add<va::BehaviouralOta>("ota", inp, ground, out, spec);
    c.add<Resistor>("rl", out, ground, 1e9);
    const Solution op = solve_op(c);
    const auto freqs = log_sweep(10.0, 100e6, 10);
    const AcResult ac = run_ac(c, op, freqs);
    const auto h = ac.transfer(out, inp);
    const BodeMetrics m = bode_metrics(freqs, h);
    EXPECT_NEAR(m.dc_gain_db, 40.0, 0.05);
    EXPECT_NEAR(m.f3db, 10e3, 600.0);
    // Single pole -> ~90 deg phase margin at unity.
    EXPECT_NEAR(m.phase_margin_deg, 90.0, 1.5);
}

TEST(BehaviouralOta, MatchesPaperContributionForm) {
    // V(out) <+ A*(V(inp)-V(inn)) - I(out)*ro: check the differential input.
    Circuit c;
    const NodeId a = c.node("a");
    const NodeId b = c.node("b");
    const NodeId out = c.node("out");
    c.add<VoltageSource>("va", a, ground, 0.3);
    c.add<VoltageSource>("vb", b, ground, 0.299);
    va::BehaviouralOtaSpec spec{40.0, 1e3, 1e3};
    c.add<va::BehaviouralOta>("ota", a, b, out, spec);
    c.add<Resistor>("rl", out, ground, 1e9);
    const Solution op = solve_op(c);
    EXPECT_NEAR(op.voltage(out), 100.0 * 1e-3, 1e-4);
}

// ---------------------------------------------------------------- codegen

TEST(VaCodegen, ContainsPaperStructure) {
    va::VaModuleFiles files;
    files.param_tables = {"lp1_data.tbl", "lp2_data.tbl", "lp3_data.tbl",
                          "lp4_data.tbl"};
    const std::string text = va::generate_va_module(files);
    // The structural elements of the paper's section 4.4 listing:
    EXPECT_NE(text.find("$table_model(gain, \"gain_delta.tbl\", \"3E\")"),
              std::string::npos);
    EXPECT_NE(text.find("$table_model(pm, \"pm_delta.tbl\", \"3E\")"),
              std::string::npos);
    EXPECT_NE(text.find("gain_prop = ((gain_delta/100)*gain)+gain;"),
              std::string::npos);
    EXPECT_NE(text.find("lp4 = $table_model(gain_prop, pm_prop, \"lp4_data.tbl\", "
                        "\"3E,3E\");"),
              std::string::npos);
    EXPECT_NE(text.find("pow(10, gain_prop/20)"), std::string::npos);
    EXPECT_NE(text.find("V(out) <+ (V(inp) - V(inn))*gain_in_v - I(out)*ro;"),
              std::string::npos);
    EXPECT_NE(text.find("$fopen(\"params.dat\")"), std::string::npos);
    EXPECT_NE(text.find("module ota_yield_model(inp, inn, out);"),
              std::string::npos);
    EXPECT_NE(text.find("parameter real ro   = 1e+06;"), std::string::npos);
    EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(VaCodegen, GeneralisesToNParameters) {
    va::VaModuleFiles files;
    for (int i = 1; i <= 8; ++i)
        files.param_tables.push_back("lp" + std::to_string(i) + "_data.tbl");
    const std::string text = va::generate_va_module(files);
    EXPECT_NE(text.find("real lp8;"), std::string::npos);
    EXPECT_NE(text.find("lp8 = $table_model"), std::string::npos);
}

TEST(VaCodegen, RequiresAtLeastOneTable) {
    va::VaModuleFiles files;
    EXPECT_THROW((void)va::generate_va_module(files), InvalidInputError);
}

} // namespace
