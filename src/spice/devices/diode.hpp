#pragma once
/// \file diode.hpp
/// \brief Junction diode: Shockley exponential with series resistance and
///        junction capacitance, Newton-limited for convergence.

#include "spice/device.hpp"

namespace ypm::spice {

/// Diode model parameters.
struct DiodeParams {
    double is = 1e-14;  ///< saturation current (A)
    double n = 1.0;     ///< emission coefficient
    double rs = 0.0;    ///< series resistance (ohm); 0 = none
    double cj0 = 0.0;   ///< zero-bias junction capacitance (F)
    double vj = 0.7;    ///< junction potential (V)
    double m = 0.5;     ///< grading coefficient
};

class Diode final : public Device {
public:
    /// Anode a, cathode k.
    Diode(std::string name, NodeId a, NodeId k, DiodeParams params = {});

    [[nodiscard]] bool nonlinear() const override { return true; }
    /// One private node when rs > 0 (the internal junction node).
    [[nodiscard]] std::size_t internal_node_count() const override {
        return params_.rs > 0.0 ? 1 : 0;
    }

    void stamp_dc(RealStamper& s, const Solution& x) const override;
    void stamp_ac(AcTermRecorder& rec, const Solution& op) const override;

    /// Junction current and small-signal conductance at a junction voltage.
    struct OpInfo {
        double id = 0.0; ///< anode -> cathode current
        double gd = 0.0; ///< d(id)/d(vd)
        double cj = 0.0; ///< junction capacitance at this bias
        double vd = 0.0; ///< junction voltage (internal node when rs > 0)
    };
    [[nodiscard]] OpInfo op_info(const Solution& x) const;

    [[nodiscard]] const DiodeParams& params() const { return params_; }

private:
    /// Junction node (internal when rs > 0, else the anode).
    [[nodiscard]] NodeId junction() const {
        return params_.rs > 0.0 ? internal_node() : a_;
    }
    [[nodiscard]] OpInfo evaluate(double vd) const;

    NodeId a_, k_;
    DiodeParams params_;
};

} // namespace ypm::spice
