#pragma once
/// \file resistor.hpp
/// \brief Linear resistor.

#include "spice/device.hpp"

namespace ypm::spice {

class Resistor final : public Device {
public:
    /// \param r resistance in ohms, must be > 0
    Resistor(std::string name, NodeId a, NodeId b, double r);

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    [[nodiscard]] double resistance() const { return r_; }

private:
    NodeId a_, b_;
    double r_;
};

} // namespace ypm::spice
