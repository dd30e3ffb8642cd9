#include "spice/circuit.hpp"

#include "spice/devices/mosfet.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace ypm::spice {

Circuit::Circuit() = default;

namespace {
bool is_ground_name(const std::string& lower) {
    return lower == "0" || lower == "gnd" || lower == "gnd!" || lower == "vss!";
}
} // namespace

NodeId Circuit::node(const std::string& name) {
    const std::string key = str::to_lower(str::trim(name));
    if (key.empty()) throw InvalidInputError("Circuit: empty node name");
    if (is_ground_name(key)) return ground;
    const auto it = by_name_.find(key);
    if (it != by_name_.end()) return it->second;
    names_.push_back(key);
    const NodeId id = static_cast<NodeId>(names_.size());
    by_name_.emplace(key, id);
    return id;
}

std::optional<NodeId> Circuit::find_node(const std::string& name) const {
    const std::string key = str::to_lower(str::trim(name));
    if (is_ground_name(key)) return ground;
    const auto it = by_name_.find(key);
    if (it == by_name_.end()) return std::nullopt;
    return it->second;
}

void Circuit::add_device(std::unique_ptr<Device> device) {
    if (!device) throw InvalidInputError("Circuit: null device");
    const std::string key = str::to_lower(device->name());
    if (device_index_.count(key))
        throw InvalidInputError("Circuit: duplicate device name '" + device->name() +
                                "'");
    device_index_.emplace(key, devices_.size());
    devices_.push_back(std::move(device));
    finalized_ = false;
}

Device* Circuit::find_device(const std::string& name) {
    const auto it = device_index_.find(str::to_lower(name));
    return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

const Device* Circuit::find_device(const std::string& name) const {
    const auto it = device_index_.find(str::to_lower(name));
    return it == device_index_.end() ? nullptr : devices_[it->second].get();
}

void Circuit::finalize() {
    if (finalized_) return;
    // Allocate private internal nodes first, then branch indices, in device
    // order so layouts are reproducible.
    for (auto& dev : devices_) {
        const std::size_t internals = dev->internal_node_count();
        if (internals > 0) {
            dev->assign_internal_base(static_cast<NodeId>(names_.size() + 1));
            for (std::size_t i = 0; i < internals; ++i) {
                const std::string internal_name =
                    str::to_lower(dev->name()) + "#int" + std::to_string(i);
                // Internal names are namespaced by device name and device
                // names are unique, so collisions cannot occur.
                names_.push_back(internal_name);
                by_name_.emplace(internal_name, static_cast<NodeId>(names_.size()));
            }
        }
    }
    std::size_t branch = 0;
    for (auto& dev : devices_) {
        if (dev->branch_count() > 0) {
            dev->assign_branch_base(branch);
            branch += dev->branch_count();
        }
    }
    n_branches_ = branch;
    finalized_ = true;
}

std::vector<process::MosGeometry> Circuit::mos_geometries() const {
    std::vector<process::MosGeometry> out;
    for (const auto& dev : devices_) {
        const auto* mos = dynamic_cast<const Mosfet*>(dev.get());
        if (mos == nullptr) continue;
        process::MosGeometry g;
        g.name = str::to_lower(mos->name());
        g.is_pmos = mos->is_pmos();
        g.w = mos->width();
        g.l = mos->length();
        out.push_back(std::move(g));
    }
    return out;
}

void Circuit::apply_process(const process::Realization& realization) {
    for (auto& dev : devices_) {
        auto* mos = dynamic_cast<Mosfet*>(dev.get());
        if (mos == nullptr) continue;
        mos->apply_delta(
            realization.delta_for(str::to_lower(mos->name()), mos->is_pmos()));
    }
}

} // namespace ypm::spice
