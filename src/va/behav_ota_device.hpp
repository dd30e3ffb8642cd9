#pragma once
/// \file behav_ota_device.hpp
/// \brief Behavioural OTA macromodel as a simulator device.
///
/// Runtime equivalent of the paper's generated Verilog-A module (section
/// 4.4 listing): the output contribution is
///
///     V(out) <+ A(s) * (V(inp) - V(inn)) - I(out) * ro
///
/// realised as an internal controlled source with a single dominant pole
/// A(s) = A0 / (1 + j f/fp) plus a series output resistance. Higher-order
/// (parasitic) poles of the transistor circuit are intentionally not
/// modelled - reproducing the >40 MHz divergence of paper Fig. 8.

#include "spice/device.hpp"

namespace ypm::va {

/// Electrical parameters of the macromodel.
struct BehaviouralOtaSpec {
    double gain_db = 50.0; ///< DC open-loop gain (dB)
    double f3db = 10e3;    ///< dominant-pole frequency (Hz)
    double rout = 1e6;     ///< output resistance (ohm)
};

class BehaviouralOta final : public spice::Device {
public:
    BehaviouralOta(std::string name, spice::NodeId inp, spice::NodeId inn,
                   spice::NodeId out, BehaviouralOtaSpec spec);

    /// One private node (the ideal gain output before rout).
    [[nodiscard]] std::size_t internal_node_count() const override { return 1; }
    /// One branch current (the controlled source's).
    [[nodiscard]] std::size_t branch_count() const override { return 1; }

    void stamp_dc(spice::RealStamper& s, const spice::Solution& x) const override;
    /// The single pole records as pole terms (ac_terms.hpp).
    void stamp_ac(spice::AcTermRecorder& rec,
                  const spice::Solution& op) const override;
    [[nodiscard]] const BehaviouralOtaSpec& spec() const { return spec_; }
    void set_spec(const BehaviouralOtaSpec& spec);

private:
    spice::NodeId inp_, inn_, out_;
    BehaviouralOtaSpec spec_;
    double a0_ = 0.0; ///< linear DC gain, cached from spec
};

} // namespace ypm::va
