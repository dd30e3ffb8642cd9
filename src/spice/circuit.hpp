#pragma once
/// \file circuit.hpp
/// \brief Circuit container: named nodes plus an ordered device list.

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "process/sampler.hpp"
#include "spice/device.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

class Mosfet; // devices/mosfet.hpp

class Circuit {
public:
    Circuit();

    /// Get-or-create a named node. "0", "gnd" and "gnd!" map to ground.
    NodeId node(const std::string& name);

    /// Look up an existing node by name.
    [[nodiscard]] std::optional<NodeId> find_node(const std::string& name) const;

    /// Non-ground node count (including device-internal nodes after
    /// finalize()).
    [[nodiscard]] std::size_t node_count() const { return names_.size(); }

    /// Construct and register a device.
    /// Example: circuit.add<Resistor>("r1", n1, n2, 10e3);
    template <typename D, typename... Args>
    D& add(Args&&... args) {
        auto dev = std::make_unique<D>(std::forward<Args>(args)...);
        D& ref = *dev;
        add_device(std::move(dev));
        return ref;
    }

    /// Register an already-built device.
    void add_device(std::unique_ptr<Device> device);

    /// Find a device by name (nullptr if absent).
    [[nodiscard]] Device* find_device(const std::string& name);
    [[nodiscard]] const Device* find_device(const std::string& name) const;

    [[nodiscard]] const std::vector<std::unique_ptr<Device>>& devices() const {
        return devices_;
    }

    /// Allocate internal nodes and branch indices. Idempotent; called by
    /// analyses. Adding a device invalidates the previous finalisation.
    void finalize();
    [[nodiscard]] bool finalized() const { return finalized_; }

    /// Total branch unknowns (valid after finalize()).
    [[nodiscard]] std::size_t branch_count() const { return n_branches_; }

    /// Total MNA unknowns = nodes + branches (valid after finalize()).
    [[nodiscard]] std::size_t unknowns() const {
        return node_count() + branch_count();
    }

    /// Geometry of every MOSFET, for process mismatch sampling.
    [[nodiscard]] std::vector<process::MosGeometry> mos_geometries() const;

    /// Apply a process realisation to every MOSFET instance.
    void apply_process(const process::Realization& realization);

private:
    std::vector<std::string> names_; ///< index = NodeId - 1
    std::unordered_map<std::string, NodeId> by_name_;
    std::vector<std::unique_ptr<Device>> devices_;
    std::unordered_map<std::string, std::size_t> device_index_;
    std::size_t n_branches_ = 0;
    bool finalized_ = false;
};

} // namespace ypm::spice
