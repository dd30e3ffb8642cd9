#pragma once
/// \file sources.hpp
/// \brief Independent voltage and current sources with DC and AC values.

#include <complex>
#include <optional>

#include "spice/device.hpp"

namespace ypm::spice {

/// SPICE SIN() style waveform: offset + amplitude*sin(2 pi f (t - delay)).
struct SineWave {
    double offset = 0.0;
    double amplitude = 1.0;
    double freq_hz = 1e3;
    double delay = 0.0;
};

/// SPICE PULSE() style waveform.
struct PulseWave {
    double v1 = 0.0;     ///< initial level
    double v2 = 1.0;     ///< pulsed level
    double delay = 0.0;  ///< time before the first edge
    double rise = 1e-9;
    double fall = 1e-9;
    double width = 1e-6; ///< time at v2
    double period = 0.0; ///< 0 = single pulse
};

/// Evaluate a pulse waveform at time t.
[[nodiscard]] double pulse_value(const PulseWave& w, double t);

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
    void stamp_tran(RealStamper& s, const Solution& x,
                    const TranContext& ctx) const override;

    [[nodiscard]] double dc() const { return dc_; }
    void set_dc(double dc) { dc_ = dc; }
    [[nodiscard]] double ac_magnitude() const { return ac_mag_; }

    /// Attach a transient waveform (transient value; DC keeps dc()).
    void set_sine(const SineWave& w) { sine_ = w; pulse_.reset(); }
    void set_pulse(const PulseWave& w) { pulse_ = w; sine_.reset(); }

    /// Value driven during transient analysis at time t (dc() if no
    /// waveform is attached).
    [[nodiscard]] double tran_value(double t) const;

    /// Branch index carrying the source current (after finalize()).
    [[nodiscard]] std::size_t current_branch() const { return branch(0); }

private:
    NodeId a_, b_;
    double dc_;
    double ac_mag_;
    double ac_phase_deg_;
    std::optional<SineWave> sine_;
    std::optional<PulseWave> pulse_;
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
