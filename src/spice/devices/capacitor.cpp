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

void Capacitor::stamp_tran(RealStamper& s, const Solution&,
                           const TranContext& ctx) const {
    if (c_ == 0.0) return;
    const double v_prev = ctx.prev->voltage(a_) - ctx.prev->voltage(b_);
    double g, ieq;
    if (ctx.method == TranMethod::trapezoidal) {
        // i_n = g*v_n - (g*v_{n-1} + i_{n-1}) with g = 2C/dt.
        g = 2.0 * c_ / ctx.dt;
        const double i_prev = (*ctx.state_prev)[tran_state()];
        ieq = g * v_prev + i_prev;
    } else {
        // Backward Euler: i_n = g*(v_n - v_{n-1}) with g = C/dt.
        g = c_ / ctx.dt;
        ieq = g * v_prev;
    }
    s.conductance(a_, b_, g);
    // ieq is injected *into* node a (it models the stored charge pushing
    // current through the branch).
    s.rhs(a_, ieq);
    s.rhs(b_, -ieq);
}

void Capacitor::update_tran_state(const Solution& x, const TranContext& ctx,
                                  std::vector<double>& state_now) const {
    if (c_ == 0.0) {
        state_now[tran_state()] = 0.0;
        return;
    }
    const double v_now = x.voltage(a_) - x.voltage(b_);
    const double v_prev = ctx.prev->voltage(a_) - ctx.prev->voltage(b_);
    if (ctx.method == TranMethod::trapezoidal) {
        const double g = 2.0 * c_ / ctx.dt;
        const double i_prev = (*ctx.state_prev)[tran_state()];
        state_now[tran_state()] = g * (v_now - v_prev) - i_prev;
    } else {
        state_now[tran_state()] = c_ / ctx.dt * (v_now - v_prev);
    }
}

} // namespace ypm::spice
