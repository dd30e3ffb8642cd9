#include "spice/devices/controlled.hpp"

namespace ypm::spice {

// ------------------------------------------------------------------ VCVS

Vcvs::Vcvs(std::string name, NodeId out_p, NodeId out_n, NodeId ctrl_p,
           NodeId ctrl_n, double gain)
    : Device(std::move(name)), out_p_(out_p), out_n_(out_n), ctrl_p_(ctrl_p),
      ctrl_n_(ctrl_n), gain_(gain) {}

void Vcvs::stamp_dc(RealStamper& s, const Solution&) const {
    s.mat_branch_col(out_p_, branch(), 1.0);
    s.mat_branch_col(out_n_, branch(), -1.0);
    // Branch equation: V(out_p) - V(out_n) - gain*(V(cp) - V(cn)) = 0.
    s.mat_branch_row(branch(), out_p_, 1.0);
    s.mat_branch_row(branch(), out_n_, -1.0);
    s.mat_branch_row(branch(), ctrl_p_, -gain_);
    s.mat_branch_row(branch(), ctrl_n_, gain_);
}

void Vcvs::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    rec.mat_branch_col(out_p_, branch(), {1.0, 0.0});
    rec.mat_branch_col(out_n_, branch(), {-1.0, 0.0});
    rec.mat_branch_row(branch(), out_p_, {1.0, 0.0});
    rec.mat_branch_row(branch(), out_n_, {-1.0, 0.0});
    rec.mat_branch_row(branch(), ctrl_p_, {-gain_, 0.0});
    rec.mat_branch_row(branch(), ctrl_n_, {gain_, 0.0});
}

// ------------------------------------------------------------------ VCCS

Vccs::Vccs(std::string name, NodeId out_p, NodeId out_n, NodeId ctrl_p,
           NodeId ctrl_n, double gm)
    : Device(std::move(name)), out_p_(out_p), out_n_(out_n), ctrl_p_(ctrl_p),
      ctrl_n_(ctrl_n), gm_(gm) {}

void Vccs::stamp_dc(RealStamper& s, const Solution&) const {
    s.mat(out_p_, ctrl_p_, gm_);
    s.mat(out_p_, ctrl_n_, -gm_);
    s.mat(out_n_, ctrl_p_, -gm_);
    s.mat(out_n_, ctrl_n_, gm_);
}

void Vccs::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    rec.mat(out_p_, ctrl_p_, {gm_, 0.0});
    rec.mat(out_p_, ctrl_n_, {-gm_, 0.0});
    rec.mat(out_n_, ctrl_p_, {-gm_, 0.0});
    rec.mat(out_n_, ctrl_n_, {gm_, 0.0});
}

} // namespace ypm::spice
