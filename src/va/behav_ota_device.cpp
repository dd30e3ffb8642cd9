#include "va/behav_ota_device.hpp"

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::va {

BehaviouralOta::BehaviouralOta(std::string name, spice::NodeId inp,
                               spice::NodeId inn, spice::NodeId out,
                               BehaviouralOtaSpec spec)
    : Device(std::move(name)), inp_(inp), inn_(inn), out_(out) {
    set_spec(spec);
}

void BehaviouralOta::set_spec(const BehaviouralOtaSpec& spec) {
    if (!(spec.rout > 0.0))
        throw InvalidInputError("BehaviouralOta " + name() + ": rout must be > 0");
    if (!(spec.f3db > 0.0))
        throw InvalidInputError("BehaviouralOta " + name() + ": f3db must be > 0");
    spec_ = spec;
    a0_ = mathx::undb20(spec.gain_db);
}

void BehaviouralOta::stamp_dc(spice::RealStamper& s, const spice::Solution&) const {
    const spice::NodeId u = internal_node();
    // Controlled source: V(u) = A0 * (V(inp) - V(inn)); branch current into u.
    s.mat_branch_col(u, branch(), 1.0);
    s.mat_branch_row(branch(), u, 1.0);
    s.mat_branch_row(branch(), inp_, -a0_);
    s.mat_branch_row(branch(), inn_, a0_);
    // Series output resistance u -> out.
    s.conductance(u, out_, 1.0 / spec_.rout);
}

void BehaviouralOta::stamp_ac(spice::AcTermRecorder& rec,
                              const spice::Solution&) const {
    const spice::NodeId u = internal_node();
    // Single dominant pole: A(jw) = A0 / (1 + j w/wp).
    const double wp = 2.0 * mathx::pi * spec_.f3db;
    rec.mat_branch_col(u, branch(), {1.0, 0.0});
    rec.mat_branch_row(branch(), u, {1.0, 0.0});
    rec.mat_branch_row_pole(branch(), inp_, -a0_, wp);
    rec.mat_branch_row_pole(branch(), inn_, a0_, wp);
    rec.conductance(u, out_, {1.0 / spec_.rout, 0.0});
}

} // namespace ypm::va
