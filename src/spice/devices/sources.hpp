#pragma once
/// \file sources.hpp
/// \brief Independent voltage and current sources with DC and AC values.

#include <complex>

#include "spice/device.hpp"

namespace ypm::spice {

/// Independent voltage source. Positive terminal a, negative b; the branch
/// current flows a -> b through the source (SPICE convention: a positive
/// branch current means current is drawn *out of* node a).
class VoltageSource final : public Device {
public:
    VoltageSource(std::string name, NodeId a, NodeId b, double dc,
                  double ac_magnitude = 0.0, double ac_phase_deg = 0.0);

    [[nodiscard]] std::size_t branch_count() const override { return 1; }

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    [[nodiscard]] double dc() const { return dc_; }
    void set_dc(double dc) { dc_ = dc; }

    /// Branch index carrying the source current (after finalize()).
    [[nodiscard]] std::size_t current_branch() const { return branch(0); }

private:
    NodeId a_, b_;
    double dc_;
    double ac_mag_;
    double ac_phase_deg_;
};

/// Independent current source. Positive current flows from node a through
/// the source to node b (pulls from a, pushes into b).
class CurrentSource final : public Device {
public:
    CurrentSource(std::string name, NodeId a, NodeId b, double dc,
                  double ac_magnitude = 0.0, double ac_phase_deg = 0.0);

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    [[nodiscard]] double dc() const { return dc_; }
    void set_dc(double dc) { dc_ = dc; }

private:
    NodeId a_, b_;
    double dc_;
    double ac_mag_;
    double ac_phase_deg_;
};

} // namespace ypm::spice
