#include "spice/devices/capacitor.hpp"

#include "util/error.hpp"

namespace ypm::spice {

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double c)
    : Device(std::move(name)), a_(a), b_(b), c_(c) {
    if (c < 0.0)
        throw InvalidInputError("Capacitor " + this->name() +
                                ": capacitance must be >= 0");
}

void Capacitor::set_capacitance(double c) {
    if (c < 0.0)
        throw InvalidInputError("Capacitor " + name() + ": capacitance must be >= 0");
    c_ = c;
}

void Capacitor::stamp_dc(RealStamper&, const Solution&) const {
    // Open circuit at DC.
}

void Capacitor::stamp_ac(AcTermRecorder& rec, const Solution&) const {
    rec.conductance(a_, b_, {0.0, 0.0}, c_);
}

} // namespace ypm::spice
