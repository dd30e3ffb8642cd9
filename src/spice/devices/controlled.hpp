#pragma once
/// \file controlled.hpp
/// \brief Linear controlled sources: VCVS (E element) and VCCS (G element).

#include "spice/device.hpp"

namespace ypm::spice {

/// Voltage-controlled voltage source:
/// V(out_p) - V(out_n) = gain * (V(ctrl_p) - V(ctrl_n)).
class Vcvs final : public Device {
public:
    Vcvs(std::string name, NodeId out_p, NodeId out_n, NodeId ctrl_p, NodeId ctrl_n,
         double gain);

    [[nodiscard]] std::size_t branch_count() const override { return 1; }

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

private:
    NodeId out_p_, out_n_, ctrl_p_, ctrl_n_;
    double gain_;
};

/// Voltage-controlled current source:
/// I(out_p -> out_n) = gm * (V(ctrl_p) - V(ctrl_n)).
class Vccs final : public Device {
public:
    Vccs(std::string name, NodeId out_p, NodeId out_n, NodeId ctrl_p, NodeId ctrl_n,
         double gm);

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

private:
    NodeId out_p_, out_n_, ctrl_p_, ctrl_n_;
    double gm_;
};

} // namespace ypm::spice
