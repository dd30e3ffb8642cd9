#include "circuits/ota.hpp"

#include <cmath>

#include "spice/analysis/ac.hpp"
#include "spice/devices/capacitor.hpp"
#include "spice/devices/inductor.hpp"
#include "spice/devices/sources.hpp"
#include "util/error.hpp"

namespace ypm::circuits {

using spice::Circuit;
using spice::Mosfet;
using spice::NodeId;

OtaSizing OtaSizing::from_vector(const std::vector<double>& v) {
    if (v.size() != parameter_count)
        throw InvalidInputError("OtaSizing: expected 8 parameters");
    OtaSizing s;
    s.w1 = v[0];
    s.l1 = v[1];
    s.w2 = v[2];
    s.l2 = v[3];
    s.w3 = v[4];
    s.l3 = v[5];
    s.w4 = v[6];
    s.l4 = v[7];
    return s;
}

std::vector<double> OtaSizing::to_vector() const {
    return {w1, l1, w2, l2, w3, l3, w4, l4};
}

std::vector<moo::ParameterSpec> OtaSizing::parameter_specs() {
    // Paper Table 1.
    constexpr double w_lo = 10e-6, w_hi = 60e-6;
    constexpr double l_lo = 0.35e-6, l_hi = 4e-6;
    return {
        {"w1", w_lo, w_hi}, {"l1", l_lo, l_hi}, {"w2", w_lo, w_hi},
        {"l2", l_lo, l_hi}, {"w3", w_lo, w_hi}, {"l3", l_lo, l_hi},
        {"w4", w_lo, w_hi}, {"l4", l_lo, l_hi},
    };
}

const std::vector<std::string>& OtaSizing::parameter_names() {
    static const std::vector<std::string> names = {"w1", "l1", "w2", "l2",
                                                   "w3", "l3", "w4", "l4"};
    return names;
}

void add_ota_core(Circuit& ckt, const std::string& prefix, const OtaSizing& s,
                  const OtaConfig& cfg, NodeId inp, NodeId inn, NodeId out,
                  NodeId vdd) {
    using Type = Mosfet::Type;
    const auto& nm = cfg.card.nmos;
    const auto& pm = cfg.card.pmos;

    const NodeId tail = ckt.node(prefix + "tail");
    const NodeId d1 = ckt.node(prefix + "d1");
    const NodeId d2 = ckt.node(prefix + "d2");
    const NodeId x = ckt.node(prefix + "x"); // cascode mirror input branch
    const NodeId w = ckt.node(prefix + "w"); // bottom diode gate node
    const NodeId z = ckt.node(prefix + "z"); // output cascode source node

    // Differential pair (fixed dimensions, paper section 4.1).
    ckt.add<Mosfet>(prefix + "m1", d1, inp, tail, spice::ground, Type::nmos, nm,
                    cfg.w_in, cfg.l_in);
    ckt.add<Mosfet>(prefix + "m2", d2, inn, tail, spice::ground, Type::nmos, nm,
                    cfg.w_in, cfg.l_in);
    ckt.add<spice::CurrentSource>(prefix + "itail", tail, spice::ground,
                                  cfg.i_tail);

    // PMOS loads, diode-connected (W4, L4).
    ckt.add<Mosfet>(prefix + "m3", d1, d1, vdd, vdd, Type::pmos, pm, s.w4, s.l4);
    ckt.add<Mosfet>(prefix + "m6", d2, d2, vdd, vdd, Type::pmos, pm, s.w4, s.l4);

    // PMOS mirror outputs (W1, L1): current gain B = (W1/L1)/(W4/L4).
    ckt.add<Mosfet>(prefix + "m5", out, d1, vdd, vdd, Type::pmos, pm, s.w1, s.l1);
    ckt.add<Mosfet>(prefix + "m4", x, d2, vdd, vdd, Type::pmos, pm, s.w1, s.l1);

    // NMOS cascode mirror: input branch M9 (top diode) over M7 (bottom
    // diode), output branch M10 (cascode) over M8.
    ckt.add<Mosfet>(prefix + "m9", x, x, w, spice::ground, Type::nmos, nm, s.w2,
                    s.l2);
    ckt.add<Mosfet>(prefix + "m7", w, w, spice::ground, spice::ground, Type::nmos,
                    nm, s.w2, s.l2);
    ckt.add<Mosfet>(prefix + "m10", out, x, z, spice::ground, Type::nmos, nm, s.w3,
                    s.l3);
    ckt.add<Mosfet>(prefix + "m8", z, w, spice::ground, spice::ground, Type::nmos,
                    nm, s.w3, s.l3);
}

Circuit build_ota_testbench(const OtaSizing& sizing, const OtaConfig& cfg) {
    Circuit ckt;
    const NodeId vdd = ckt.node("vdd");
    const NodeId inp = ckt.node("inp");
    const NodeId inn = ckt.node("inn");
    const NodeId out = ckt.node("out");

    ckt.add<spice::VoltageSource>("vsupply", vdd, spice::ground, cfg.card.vdd);
    // AC-driven non-inverting input at the common-mode level.
    ckt.add<spice::VoltageSource>("vinp", inp, spice::ground, cfg.vcm, 1.0);

    add_ota_core(ckt, "", sizing, cfg, inp, inn, out, vdd);

    // DC unity feedback / AC open loop.
    ckt.add<spice::Inductor>("lfb", out, inn, cfg.fb_inductor);
    ckt.add<spice::Capacitor>("cfb", inn, spice::ground, cfg.fb_capacitor);

    // Load.
    ckt.add<spice::Capacitor>("cload", out, spice::ground, cfg.c_load);
    return ckt;
}

OtaPrototype::OtaPrototype(const OtaConfig& config)
    : proto_(build_ota_testbench(OtaSizing{}, config)), inst_(proto_.instance()),
      m3_(&proto_.device<Mosfet>("m3")), m6_(&proto_.device<Mosfet>("m6")),
      m5_(&proto_.device<Mosfet>("m5")), m4_(&proto_.device<Mosfet>("m4")),
      m9_(&proto_.device<Mosfet>("m9")), m7_(&proto_.device<Mosfet>("m7")),
      m10_(&proto_.device<Mosfet>("m10")), m8_(&proto_.device<Mosfet>("m8")),
      out_(proto_.node("out")), inp_(proto_.node("inp")),
      freqs_(spice::log_sweep(config.f_start, config.f_stop,
                              config.points_per_decade)) {}

spice::DcResult OtaPrototype::bind_and_solve(const OtaSizing& s,
                                             const process::Realization* real) {
    // Same designable-slot assignment as add_ota_core.
    m3_->set_geometry(s.w4, s.l4);
    m6_->set_geometry(s.w4, s.l4);
    m5_->set_geometry(s.w1, s.l1);
    m4_->set_geometry(s.w1, s.l1);
    m9_->set_geometry(s.w2, s.l2);
    m7_->set_geometry(s.w2, s.l2);
    m10_->set_geometry(s.w3, s.l3);
    m8_->set_geometry(s.w3, s.l3);
    inst_.bind_process(real);
    return inst_.solve_op();
}

OtaPerformance OtaPrototype::measure(const OtaSizing& sizing,
                                     const process::Realization* real) {
    OtaPerformance perf;
    const spice::DcResult op = bind_and_solve(sizing, real);
    if (!op.converged) {
        perf.failure = "dc operating point did not converge";
        return perf;
    }

    std::vector<std::complex<double>> h;
    try {
        h = inst_.ac_transfer(op.solution, freqs_, out_, inp_,
                              spice::bode_sweep_complete);
    } catch (const NumericalError& e) {
        perf.failure = std::string("ac analysis failed: ") + e.what();
        return perf;
    }

    perf.bode = spice::bode_metrics(std::span(freqs_).first(h.size()), h);
    perf.gain_db = perf.bode.dc_gain_db;
    perf.pm_deg = perf.bode.phase_margin_deg;
    if (std::isnan(perf.pm_deg) || perf.gain_db <= 0.0) {
        perf.failure = "no unity-gain crossing (gain too low)";
        return perf;
    }
    perf.valid = true;
    return perf;
}

std::vector<std::complex<double>>
OtaPrototype::transfer(const OtaSizing& sizing,
                       const process::Realization* real) {
    const spice::DcResult op = bind_and_solve(sizing, real);
    if (!op.converged)
        throw NumericalError(
            "OtaPrototype::transfer: DC operating point did not converge");
    return inst_.ac_transfer(op.solution, freqs_, out_, inp_);
}

std::vector<std::pair<std::string, Mosfet::Region>>
OtaPrototype::op_regions(const OtaSizing& sizing) {
    const spice::DcResult op = bind_and_solve(sizing, nullptr);
    if (!op.converged)
        throw NumericalError(
            "OtaPrototype::op_regions: DC operating point did not converge");
    std::vector<std::pair<std::string, Mosfet::Region>> out;
    for (const Mosfet* mos : proto_.mosfets())
        out.emplace_back(mos->name(), mos->op_info(op.solution).region);
    return out;
}

OtaEvaluator::OtaEvaluator(OtaConfig config)
    : config_(config),
      pool_(std::make_shared<spice::PrototypePool<OtaPrototype>>(
          // The factory captures the config by value, so copies of the
          // evaluator can share the pool safely (leases co-own the pool
          // core and never reference this evaluator).
          [config](std::uint64_t) { return std::make_unique<OtaPrototype>(config); })) {}

OtaPerformance OtaEvaluator::measure(const OtaSizing& sizing) const {
    return pool_->acquire()->measure(sizing);
}

OtaPerformance OtaEvaluator::measure(const OtaSizing& sizing,
                                     const process::Realization& real) const {
    return pool_->acquire()->measure(sizing, &real);
}

std::vector<OtaPerformance>
OtaEvaluator::measure_chunk(std::span<const OtaSizing> sizings) const {
    const auto proto = pool_->acquire();
    std::vector<OtaPerformance> out;
    out.reserve(sizings.size());
    for (const OtaSizing& s : sizings) out.push_back(proto->measure(s));
    return out;
}

std::vector<OtaPerformance>
OtaEvaluator::measure_chunk(std::span<const OtaSizing> sizings,
                            std::span<const process::Realization> reals) const {
    if (sizings.size() != reals.size())
        throw InvalidInputError(
            "OtaEvaluator::measure_chunk: sizing/realization count mismatch");
    const auto proto = pool_->acquire();
    std::vector<OtaPerformance> out;
    out.reserve(sizings.size());
    for (std::size_t i = 0; i < sizings.size(); ++i)
        out.push_back(proto->measure(sizings[i], &reals[i]));
    return out;
}

std::vector<OtaPerformance>
OtaEvaluator::measure_chunk(const OtaSizing& sizing,
                            std::span<const process::Realization> reals) const {
    const auto proto = pool_->acquire();
    std::vector<OtaPerformance> out;
    out.reserve(reals.size());
    for (const process::Realization& r : reals)
        out.push_back(proto->measure(sizing, &r));
    return out;
}

OtaEvaluator::Response
OtaEvaluator::ac_response(const OtaSizing& sizing,
                          const process::Realization* real) const {
    const auto proto = pool_->acquire();
    Response r;
    r.h = proto->transfer(sizing, real);
    r.freqs = proto->freqs();
    return r;
}

std::vector<std::pair<std::string, Mosfet::Region>>
OtaEvaluator::op_regions(const OtaSizing& sizing) const {
    return pool_->acquire()->op_regions(sizing);
}

} // namespace ypm::circuits
