#include "spice/devices/resistor.hpp"

#include "util/error.hpp"

namespace ypm::spice {

Resistor::Resistor(std::string name, NodeId a, NodeId b, double r)
    : Device(std::move(name)), a_(a), b_(b), r_(r) {
    if (!(r > 0.0))
        throw InvalidInputError("Resistor " + this->name() + ": resistance must be > 0");
}

void Resistor::stamp_dc(RealStamper& s, const Solution&) const {
    s.conductance(a_, b_, 1.0 / r_);
}

void Resistor::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    rec.conductance(a_, b_, {1.0 / r_, 0.0});
}

} // namespace ypm::spice
