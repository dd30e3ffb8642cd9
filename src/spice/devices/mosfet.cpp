#include "spice/devices/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ypm::spice {

namespace {

constexpr double k_boltzmann_t_over_q = 0.02585; // thermal voltage at ~300 K

/// Numerically-safe softplus ln(1 + e^u) and its sigmoid derivative.
struct SoftPlus {
    double value;
    double sigmoid;
};
SoftPlus softplus(double u) {
    if (u > 40.0) return {u, 1.0};
    if (u < -40.0) {
        const double e = std::exp(u);
        return {e, e};
    }
    const double e = std::exp(u);
    return {std::log1p(e), e / (1.0 + e)};
}

} // namespace

const char* to_string(Mosfet::Region region) {
    switch (region) {
    case Mosfet::Region::cutoff: return "cutoff";
    case Mosfet::Region::triode: return "triode";
    case Mosfet::Region::saturation: return "saturation";
    }
    return "?";
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b, Type type,
               process::MosModelParams model, double w, double l)
    : Device(std::move(name)), d_(d), g_(g), s_(s), b_(b), type_(type),
      model_(model), w_(w), l_(l) {
    set_geometry(w, l);
}

void Mosfet::set_geometry(double w, double l) {
    if (!(w > 0.0) || !(l > 0.0))
        throw InvalidInputError("Mosfet " + name() + ": W and L must be > 0");
    w_ = w;
    l_ = l;
}

Mosfet::CoreOp Mosfet::core(double vgs, double vds, double vsb) const {
    const double vt = k_boltzmann_t_over_q;
    const double n = model_.nfac;

    // Body effect (vsb clamped so the sqrt stays real under forward bias).
    // Inside the clamp the threshold no longer responds to vsb, so the
    // analytic sensitivity must be zero there or Newton's Jacobian lies.
    const double vsb_clamp = -model_.phi * 0.5 + 1e-6;
    const bool clamped = vsb < vsb_clamp;
    const double vsb_eff = clamped ? vsb_clamp : vsb;
    const double sqrt_term = std::sqrt(model_.phi + vsb_eff);
    const double vth =
        model_.vth0 + delta_.dvth +
        model_.gamma * (sqrt_term - std::sqrt(model_.phi));
    const double dvth_dvsb = clamped ? 0.0 : model_.gamma / (2.0 * sqrt_term);

    const double kp_eff = model_.kp * delta_.kp_scale * delta_.cox_scale;
    const double beta = kp_eff * w_ / l_;
    const double i_spec = 2.0 * n * beta * vt * vt;

    const double u1 = (vgs - vth) / (2.0 * n * vt);
    const double u2 = (vgs - vth - n * vds) / (2.0 * n * vt);
    const auto [l1, s1] = softplus(u1);
    const auto [l2, s2] = softplus(u2);

    const double id0 = i_spec * (l1 * l1 - l2 * l2);

    // Channel-length modulation, scaled with 1/L.
    const double lambda = model_.lambda_l / l_;
    const double clm = 1.0 + lambda * vds;

    CoreOp op{};
    op.vth = vth;
    op.id = id0 * clm;

    // Partials of id0.
    const double did0_dvgs = i_spec * (l1 * s1 - l2 * s2) / (n * vt);
    const double did0_dvds = i_spec * (l2 * s2) / vt;
    op.gm = did0_dvgs * clm;
    op.gds = did0_dvds * clm + id0 * lambda;
    // gmb via dvth/dvsb: raising vsb raises vth, lowering id.
    op.gmb = did0_dvgs * clm * dvth_dvsb;

    // Saturation voltage estimate: in strong inversion 2*vt*l1 -> (vgs-vth)/n.
    op.vdsat = std::max(2.0 * vt * l1, 4.0 * vt);
    // Region reporting follows the classic convention: below threshold is
    // cutoff (weak inversion), then triode/saturation split at vdsat. The
    // current itself stays smooth across these labels.
    if (vgs - vth < 0.0)
        op.region = Region::cutoff;
    else if (vds < op.vdsat)
        op.region = Region::triode;
    else
        op.region = Region::saturation;
    return op;
}

Mosfet::OpInfo Mosfet::evaluate(double vd, double vg, double vs, double vb) const {
    const double p = is_pmos() ? -1.0 : 1.0;

    // Polarity-normalised terminal voltages.
    double vgs = p * (vg - vs);
    double vds = p * (vd - vs);
    double vsb = p * (vs - vb);

    OpInfo info{};
    const bool swapped = vds < 0.0;
    if (!swapped) {
        const CoreOp op = core(vgs, vds, vsb);
        info.id = p * op.id;
        // Terminal partials: d(id)/dV_t for t in {g, d, s, b}. With
        // id = p*op.id and normalised voltages scaled by p, the p factors
        // cancel, giving the classic stamps.
        info.g_dg = op.gm;
        info.g_dd = op.gds;
        info.g_db = op.gmb;
        info.g_ds = -(op.gm + op.gds + op.gmb);
        info.vgs = vgs;
        info.vds = vds;
        info.vsb = vsb;
        info.vth = op.vth;
        info.vdsat = op.vdsat;
        info.region = op.region;
    } else {
        // Source and drain exchange roles; evaluate with the actual drain
        // acting as source and map partials back via the chain rule.
        const double vgs_sw = p * (vg - vd);
        const double vds_sw = p * (vs - vd);
        const double vsb_sw = p * (vd - vb);
        const CoreOp op = core(vgs_sw, vds_sw, vsb_sw);
        // Current into the actual drain is the *reverse* of the swapped
        // transistor's drain current.
        info.id = -p * op.id;
        // Chain rule with id = -p*id_sw and the swapped voltages all
        // referenced to the actual drain:
        //   d(id)/dVg = -p * gm  * d(vgs_sw)/dVg = -gm
        //   d(id)/dVs = -p * gds * d(vds_sw)/dVs = -gds
        //   d(id)/dVb = -p * (-gmb) * d(vsb_sw)/dVb = -gmb
        // (core's gmb is d(id)/d(vbs), i.e. -d(id)/d(vsb))
        info.g_dg = -op.gm;
        info.g_ds = -op.gds;
        info.g_db = -op.gmb;
        // The actual drain plays the internal source role; KCL shift
        // invariance fixes its partial: sum of all four must be zero.
        info.g_dd = -(info.g_dg + info.g_ds + info.g_db);
        info.vgs = vgs_sw;
        info.vds = vds_sw;
        info.vsb = vsb_sw;
        info.vth = op.vth;
        info.vdsat = op.vdsat;
        info.region = op.region;
    }

    // Meyer gate capacitance partition + overlaps + junctions. Region uses
    // the (possibly swapped) orientation; cgs/cgd swap back accordingly.
    const double cox_area = model_.cox() * delta_.cox_scale * w_ * l_;
    const double c_ov_s = model_.cgso * w_;
    const double c_ov_d = model_.cgdo * w_;
    double cgs_i = 0.0, cgd_i = 0.0, cgb_i = 0.0;
    switch (info.region) {
    case Region::cutoff:
        cgb_i = cox_area;
        break;
    case Region::triode:
        cgs_i = 0.5 * cox_area;
        cgd_i = 0.5 * cox_area;
        break;
    case Region::saturation:
        cgs_i = (2.0 / 3.0) * cox_area;
        break;
    }
    const double cj_bottom = model_.cj * w_ * model_.ldiff;
    const double cj_side = model_.cjsw * (2.0 * (w_ + model_.ldiff));
    const double cjunc = cj_bottom + cj_side;
    if (!swapped) {
        info.cgs = cgs_i + c_ov_s;
        info.cgd = cgd_i + c_ov_d;
    } else {
        info.cgs = cgd_i + c_ov_s;
        info.cgd = cgs_i + c_ov_d;
    }
    info.cgb = cgb_i;
    info.cdb = cjunc;
    info.csb = cjunc;
    return info;
}

Mosfet::OpInfo Mosfet::op_info(const Solution& x) const {
    return evaluate(x.voltage(d_), x.voltage(g_), x.voltage(s_), x.voltage(b_));
}

void Mosfet::stamp_dc(RealStamper& s, const Solution& x) const {
    const OpInfo op = op_info(x);

    // Linearised drain current: id ~ id0 + g_dg dVg + g_dd dVd + g_ds dVs
    // + g_db dVb. KCL: +id into drain row, -id into source row.
    s.mat(d_, g_, op.g_dg);
    s.mat(d_, d_, op.g_dd);
    s.mat(d_, s_, op.g_ds);
    s.mat(d_, b_, op.g_db);
    s.mat(s_, g_, -op.g_dg);
    s.mat(s_, d_, -op.g_dd);
    s.mat(s_, s_, -op.g_ds);
    s.mat(s_, b_, -op.g_db);

    const double vg = x.voltage(g_), vd = x.voltage(d_), vs = x.voltage(s_),
                 vb = x.voltage(b_);
    const double ieq =
        op.id - op.g_dg * vg - op.g_dd * vd - op.g_ds * vs - op.g_db * vb;
    s.rhs(d_, -ieq);
    s.rhs(s_, ieq);
}

void Mosfet::stamp_ac(AcTermRecorder& rec, const Solution& op_sol) const {
    // The EKV model evaluates once per operating point; the sweep replays
    // the recorded terms at every frequency.
    const OpInfo op = op_info(op_sol);

    rec.mat(d_, g_, {op.g_dg, 0.0});
    rec.mat(d_, d_, {op.g_dd, 0.0});
    rec.mat(d_, s_, {op.g_ds, 0.0});
    rec.mat(d_, b_, {op.g_db, 0.0});
    rec.mat(s_, g_, {-op.g_dg, 0.0});
    rec.mat(s_, d_, {-op.g_dd, 0.0});
    rec.mat(s_, s_, {-op.g_ds, 0.0});
    rec.mat(s_, b_, {-op.g_db, 0.0});

    rec.conductance(g_, s_, {0.0, 0.0}, op.cgs);
    rec.conductance(g_, d_, {0.0, 0.0}, op.cgd);
    rec.conductance(g_, b_, {0.0, 0.0}, op.cgb);
    rec.conductance(d_, b_, {0.0, 0.0}, op.cdb);
    rec.conductance(s_, b_, {0.0, 0.0}, op.csb);
}

} // namespace ypm::spice
