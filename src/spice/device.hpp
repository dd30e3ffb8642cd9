#pragma once
/// \file device.hpp
/// \brief Abstract circuit element.
///
/// A device contributes stamps to the real DC system (re-evaluated every
/// Newton iteration at the candidate solution) and records its small-signal
/// AC stamp (linearised about the converged operating point) once per
/// operating point as terms the AC sweep replays per frequency
/// (ac_terms.hpp). Devices that carry a branch-current unknown (voltage
/// sources, inductors, VCVS) or private internal nodes (behavioural blocks)
/// declare them and receive their global indices from Circuit::finalize().

#include <string>
#include <vector>

#include "spice/ac_terms.hpp"
#include "spice/stamper.hpp"

namespace ypm::spice {

/// Numerical integration method for transient analysis.
enum class TranMethod {
    backward_euler, ///< first order, L-stable
    trapezoidal,    ///< second order (SPICE default)
};

/// Per-timestep context passed to transient stamps.
struct TranContext {
    double time = 0.0; ///< absolute time of the step being solved (t_n)
    double dt = 0.0;   ///< step size (t_n - t_{n-1})
    TranMethod method = TranMethod::trapezoidal;
    const Solution* prev = nullptr;             ///< converged x(t_{n-1})
    const std::vector<double>* state_prev = nullptr; ///< device state at t_{n-1}
};

class Device {
public:
    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    [[nodiscard]] const std::string& name() const { return name_; }

    /// Number of branch-current unknowns this device owns.
    [[nodiscard]] virtual std::size_t branch_count() const { return 0; }

    /// Number of private internal nodes this device owns.
    [[nodiscard]] virtual std::size_t internal_node_count() const { return 0; }

    /// True if the device's DC stamp depends on the candidate solution.
    [[nodiscard]] virtual bool nonlinear() const { return false; }

    /// Large-signal / DC stamp at candidate solution x. Linear devices may
    /// ignore x. Independent sources must scale their values by
    /// s.source_scale().
    virtual void stamp_dc(RealStamper& s, const Solution& x) const = 0;

    /// Small-signal AC stamp, linearised about the DC operating point op:
    /// record every contribution as an affine or pole term in omega
    /// (ac_terms.hpp). Called once per operating point.
    virtual void stamp_ac(AcTermRecorder& rec, const Solution& op) const = 0;

    /// Number of transient history slots (e.g. a capacitor stores its
    /// branch current for the trapezoidal companion model).
    [[nodiscard]] virtual std::size_t tran_state_count() const { return 0; }

    /// Large-signal transient stamp at candidate solution x for the step
    /// described by ctx. The default treats the device as in DC (correct
    /// for resistors and controlled sources; independent sources override
    /// to evaluate their waveform at ctx.time).
    virtual void stamp_tran(RealStamper& s, const Solution& x,
                            const TranContext& ctx) const {
        (void)ctx;
        stamp_dc(s, x);
    }

    /// Called once per converged timestep so the device can write its
    /// history (ctx.state_prev holds the previous step's values).
    virtual void update_tran_state(const Solution& x, const TranContext& ctx,
                                   std::vector<double>& state_now) const {
        (void)x;
        (void)ctx;
        (void)state_now;
    }

    /// Called by Circuit::finalize().
    void assign_branch_base(std::size_t base) { branch_base_ = base; }
    void assign_internal_base(NodeId base) { internal_base_ = base; }
    void assign_tran_state_base(std::size_t base) { tran_state_base_ = base; }

protected:
    /// Global index of this device's i-th branch unknown.
    [[nodiscard]] std::size_t branch(std::size_t i = 0) const {
        return branch_base_ + i;
    }
    /// Global node id of this device's i-th internal node.
    [[nodiscard]] NodeId internal_node(std::size_t i = 0) const {
        return internal_base_ + static_cast<NodeId>(i);
    }
    /// Global index of this device's i-th transient state slot.
    [[nodiscard]] std::size_t tran_state(std::size_t i = 0) const {
        return tran_state_base_ + i;
    }

private:
    std::string name_;
    std::size_t branch_base_ = 0;
    NodeId internal_base_ = 0;
    std::size_t tran_state_base_ = 0;
};

} // namespace ypm::spice
