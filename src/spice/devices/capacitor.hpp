#pragma once
/// \file capacitor.hpp
/// \brief Linear capacitor: open at DC, admittance j*omega*C in AC.

#include "spice/device.hpp"

namespace ypm::spice {

class Capacitor final : public Device {
public:
    /// \param c capacitance in farads, must be >= 0
    Capacitor(std::string name, NodeId a, NodeId b, double c);

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    [[nodiscard]] double capacitance() const { return c_; }
    void set_capacitance(double c);

private:
    NodeId a_, b_;
    double c_;
};

} // namespace ypm::spice
