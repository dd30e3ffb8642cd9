#include "spice/devices/inductor.hpp"

#include "util/error.hpp"

namespace ypm::spice {

Inductor::Inductor(std::string name, NodeId a, NodeId b, double l)
    : Device(std::move(name)), a_(a), b_(b), l_(l) {
    if (!(l > 0.0))
        throw InvalidInputError("Inductor " + this->name() +
                                ": inductance must be > 0");
}

void Inductor::stamp_dc(RealStamper& s, const Solution&) const {
    // Branch current i flows a -> b; KCL contributions:
    s.mat_branch_col(a_, branch(), 1.0);
    s.mat_branch_col(b_, branch(), -1.0);
    // Branch equation: V(a) - V(b) = 0 (DC short).
    s.mat_branch_row(branch(), a_, 1.0);
    s.mat_branch_row(branch(), b_, -1.0);
}

void Inductor::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    rec.mat_branch_col(a_, branch(), {1.0, 0.0});
    rec.mat_branch_col(b_, branch(), {-1.0, 0.0});
    rec.mat_branch_row(branch(), a_, {1.0, 0.0});
    rec.mat_branch_row(branch(), b_, {-1.0, 0.0});
    rec.mat_branch_branch(branch(), branch(), {0.0, 0.0}, -l_);
}

} // namespace ypm::spice
