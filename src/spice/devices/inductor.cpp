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

void Inductor::stamp_tran(RealStamper& s, const Solution&,
                          const TranContext& ctx) const {
    // The branch current is already an unknown, so the companion model
    // needs no extra state - the previous voltage and current suffice.
    const double i_prev = ctx.prev->branch_current(branch());
    const double v_prev = ctx.prev->voltage(a_) - ctx.prev->voltage(b_);

    s.mat_branch_col(a_, branch(), 1.0);
    s.mat_branch_col(b_, branch(), -1.0);
    s.mat_branch_row(branch(), a_, 1.0);
    s.mat_branch_row(branch(), b_, -1.0);
    if (ctx.method == TranMethod::trapezoidal) {
        // (v_n + v_{n-1})/2 = (L/dt)(i_n - i_{n-1})
        //   => v_n - (2L/dt) i_n = -v_{n-1} - (2L/dt) i_{n-1}
        const double r = 2.0 * l_ / ctx.dt;
        s.mat_branch_branch(branch(), branch(), -r);
        s.rhs_branch(branch(), -v_prev - r * i_prev);
    } else {
        // v_n = (L/dt)(i_n - i_{n-1})
        const double r = l_ / ctx.dt;
        s.mat_branch_branch(branch(), branch(), -r);
        s.rhs_branch(branch(), -r * i_prev);
    }
}

} // namespace ypm::spice
