#include "spice/devices/diode.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ypm::spice {

namespace {
constexpr double vt = 0.02585; // thermal voltage at ~300 K
/// Junction voltage beyond which the exponential is linearised - the
/// classic SPICE limiting that keeps Newton from overflowing.
double limit_voltage(const DiodeParams& p) {
    return p.n * vt * std::log(p.n * vt / (p.is * std::sqrt(2.0)));
}
} // namespace

Diode::Diode(std::string name, NodeId a, NodeId k, DiodeParams params)
    : Device(std::move(name)), a_(a), k_(k), params_(params) {
    if (!(params_.is > 0.0))
        throw InvalidInputError("Diode " + this->name() + ": is must be > 0");
    if (!(params_.n > 0.0))
        throw InvalidInputError("Diode " + this->name() + ": n must be > 0");
    if (params_.rs < 0.0)
        throw InvalidInputError("Diode " + this->name() + ": rs must be >= 0");
}

Diode::OpInfo Diode::evaluate(double vd) const {
    OpInfo op;
    op.vd = vd;
    const double nvt = params_.n * vt;
    const double vcrit = limit_voltage(params_);
    if (vd <= vcrit) {
        const double e = std::exp(vd / nvt);
        op.id = params_.is * (e - 1.0);
        op.gd = params_.is * e / nvt;
    } else {
        // Linear continuation above vcrit: same value and slope at vcrit.
        const double e = std::exp(vcrit / nvt);
        const double i_crit = params_.is * (e - 1.0);
        const double g_crit = params_.is * e / nvt;
        op.id = i_crit + g_crit * (vd - vcrit);
        op.gd = g_crit;
    }
    // Junction capacitance: depletion formula below vj/2, linearised above.
    if (params_.cj0 > 0.0) {
        const double half = params_.vj * 0.5;
        if (vd < half) {
            op.cj = params_.cj0 /
                    std::pow(1.0 - vd / params_.vj, params_.m);
        } else {
            const double c_half =
                params_.cj0 / std::pow(0.5, params_.m);
            const double dc = params_.m * c_half / (params_.vj * 0.5);
            op.cj = c_half + dc * (vd - half);
        }
    }
    return op;
}

Diode::OpInfo Diode::op_info(const Solution& x) const {
    return evaluate(x.voltage(junction()) - x.voltage(k_));
}

void Diode::stamp_dc(RealStamper& s, const Solution& x) const {
    const NodeId j = junction();
    const OpInfo op = op_info(x);
    // Linearised junction between j and k.
    s.conductance(j, k_, op.gd);
    const double ieq = op.id - op.gd * op.vd;
    s.rhs(j, -ieq);
    s.rhs(k_, ieq);
    // Series resistance between anode and the internal junction node.
    if (params_.rs > 0.0) s.conductance(a_, j, 1.0 / params_.rs);
}

void Diode::stamp_ac(AcTermRecorder& rec, const Solution& x) const {
    const NodeId j = junction();
    const OpInfo op = op_info(x);
    rec.conductance(j, k_, {op.gd, 0.0}, op.cj);
    if (params_.rs > 0.0) rec.conductance(a_, j, {1.0 / params_.rs, 0.0});
}

} // namespace ypm::spice
