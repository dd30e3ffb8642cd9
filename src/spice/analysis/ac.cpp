#include "spice/analysis/ac.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::spice {

std::vector<std::complex<double>> AcResult::transfer(NodeId out, NodeId in) const {
    std::vector<std::complex<double>> h;
    h.reserve(points.size());
    for (const auto& p : points) {
        const std::complex<double> vin = p.voltage(in);
        const std::complex<double> vout = p.voltage(out);
        if (std::abs(vin) == 0.0)
            throw NumericalError("AcResult::transfer: zero input response");
        h.push_back(vout / vin);
    }
    return h;
}

std::vector<double> log_sweep(double f_start, double f_stop,
                              std::size_t points_per_decade) {
    if (!(f_start > 0.0) || !(f_stop > f_start))
        throw InvalidInputError("log_sweep: need 0 < f_start < f_stop");
    if (points_per_decade == 0)
        throw InvalidInputError("log_sweep: points_per_decade must be > 0");
    const double decades = std::log10(f_stop / f_start);
    const auto n = static_cast<std::size_t>(
                       std::ceil(decades * static_cast<double>(points_per_decade))) +
                   1;
    return mathx::logspace(f_start, f_stop, std::max<std::size_t>(n, 2));
}

} // namespace ypm::spice
