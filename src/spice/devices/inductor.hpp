#pragma once
/// \file inductor.hpp
/// \brief Linear inductor: DC short (branch equation V = 0), AC impedance
///        j*omega*L. Used by the open-loop OTA testbench as the classic
///        DC-feedback / AC-open biasing element.

#include "spice/device.hpp"

namespace ypm::spice {

class Inductor final : public Device {
public:
    /// \param l inductance in henries, must be > 0
    Inductor(std::string name, NodeId a, NodeId b, double l);

    [[nodiscard]] std::size_t branch_count() const override { return 1; }

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    [[nodiscard]] double inductance() const { return l_; }

    /// Branch index carrying the inductor current (after finalize()).
    [[nodiscard]] std::size_t current_branch() const { return branch(0); }

private:
    NodeId a_, b_;
    double l_;
};

} // namespace ypm::spice
