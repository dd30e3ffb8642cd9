#pragma once
/// \file device.hpp
/// \brief Abstract circuit element.
///
/// A device contributes stamps to the real DC system (re-evaluated every
/// Newton iteration at the candidate solution) and records its small-signal
/// AC stamp (linearised about the converged operating point) once per
/// operating point as terms the AC sweep replays per frequency
/// (ac_terms.hpp). Devices that carry a branch-current unknown (voltage
/// sources, inductors, the behavioural OTA) or private internal nodes
/// (behavioural blocks) declare them and receive their global indices from
/// Circuit::finalize().

#include <string>

#include "spice/ac_terms.hpp"
#include "spice/stamper.hpp"

namespace ypm::spice {

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

    /// Called by Circuit::finalize().
    void assign_branch_base(std::size_t base) { branch_base_ = base; }
    void assign_internal_base(NodeId base) { internal_base_ = base; }

protected:
    /// Global index of this device's i-th branch unknown.
    [[nodiscard]] std::size_t branch(std::size_t i = 0) const {
        return branch_base_ + i;
    }
    /// Global node id of this device's i-th internal node.
    [[nodiscard]] NodeId internal_node(std::size_t i = 0) const {
        return internal_base_ + static_cast<NodeId>(i);
    }

private:
    std::string name_;
    std::size_t branch_base_ = 0;
    NodeId internal_base_ = 0;
};

} // namespace ypm::spice
