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

    /// One history slot: the companion-model branch current (trapezoidal).
    [[nodiscard]] std::size_t tran_state_count() const override { return 1; }
    void stamp_tran(RealStamper& s, const Solution& x,
                    const TranContext& ctx) const override;
    void update_tran_state(const Solution& x, const TranContext& ctx,
                           std::vector<double>& state_now) const override;

    [[nodiscard]] double capacitance() const { return c_; }
    void set_capacitance(double c);

private:
    NodeId a_, b_;
    double c_;
};

} // namespace ypm::spice
