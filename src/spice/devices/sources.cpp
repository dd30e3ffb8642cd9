#include "spice/devices/sources.hpp"

#include <cmath>

#include "util/mathx.hpp"

namespace ypm::spice {

namespace {

/// AC excitation phasor of magnitude `mag` at `phase_deg` degrees.
std::complex<double> phasor(double mag, double phase_deg) {
    const double ph = mathx::rad_from_deg(phase_deg);
    return {mag * std::cos(ph), mag * std::sin(ph)};
}

} // namespace

// --------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b, double dc,
                             double ac_magnitude, double ac_phase_deg)
    : Device(std::move(name)), a_(a), b_(b), dc_(dc), ac_mag_(ac_magnitude),
      ac_phase_deg_(ac_phase_deg) {}

void VoltageSource::stamp_dc(RealStamper& s, const Solution&) const {
    s.mat_branch_col(a_, branch(), 1.0);
    s.mat_branch_col(b_, branch(), -1.0);
    s.mat_branch_row(branch(), a_, 1.0);
    s.mat_branch_row(branch(), b_, -1.0);
    s.rhs_branch(branch(), dc_ * s.source_scale());
}

void VoltageSource::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    rec.mat_branch_col(a_, branch(), {1.0, 0.0});
    rec.mat_branch_col(b_, branch(), {-1.0, 0.0});
    rec.mat_branch_row(branch(), a_, {1.0, 0.0});
    rec.mat_branch_row(branch(), b_, {-1.0, 0.0});
    rec.rhs_branch(branch(), phasor(ac_mag_, ac_phase_deg_));
}

// --------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId a, NodeId b, double dc,
                             double ac_magnitude, double ac_phase_deg)
    : Device(std::move(name)), a_(a), b_(b), dc_(dc), ac_mag_(ac_magnitude),
      ac_phase_deg_(ac_phase_deg) {}

void CurrentSource::stamp_dc(RealStamper& s, const Solution&) const {
    const double i = dc_ * s.source_scale();
    s.rhs(a_, -i);
    s.rhs(b_, i);
}

void CurrentSource::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    const std::complex<double> i = phasor(ac_mag_, ac_phase_deg_);
    rec.rhs(a_, -i);
    rec.rhs(b_, i);
}

} // namespace ypm::spice
