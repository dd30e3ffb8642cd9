#include "mc/yield.hpp"

#include <cmath>

#include "util/error.hpp"

namespace ypm::mc {

Spec Spec::at_least(std::string name, double bound) {
    Spec s;
    s.name = std::move(name);
    s.kind = Kind::at_least;
    s.lo = bound;
    return s;
}

Spec Spec::at_most(std::string name, double bound) {
    Spec s;
    s.name = std::move(name);
    s.kind = Kind::at_most;
    s.hi = bound;
    return s;
}

Spec Spec::range(std::string name, double lo, double hi) {
    if (!(lo <= hi)) throw InvalidInputError("Spec::range: lo must be <= hi");
    Spec s;
    s.name = std::move(name);
    s.kind = Kind::range;
    s.lo = lo;
    s.hi = hi;
    return s;
}

bool Spec::pass(double value) const {
    if (std::isnan(value)) return false;
    switch (kind) {
    case Kind::at_least: return value >= lo;
    case Kind::at_most: return value <= hi;
    case Kind::range: return value >= lo && value <= hi;
    }
    return false;
}

std::pair<double, double> wilson_interval(std::size_t passes, std::size_t samples) {
    if (samples == 0) return {0.0, 1.0}; // no evidence: the vacuous interval
    if (passes > samples)
        throw InvalidInputError("wilson_interval: passes must be <= samples");
    constexpr double z = kZ95;
    const double n = static_cast<double>(samples);
    const double phat = static_cast<double>(passes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double centre = phat + z2 / (2.0 * n);
    const double margin = z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
    double lo = (centre - margin) / denom;
    double hi = (centre + margin) / denom;
    // The edges are exact at the degenerate counts (the sqrt rounds them a
    // few ulp off): 0 passes has a lower bound of exactly 0, a clean sweep
    // an upper bound of exactly 1.
    if (passes == 0) lo = 0.0;
    if (passes == samples) hi = 1.0;
    return {lo, hi};
}

YieldEstimate yield_from_flags(const std::vector<bool>& pass) {
    YieldEstimate y;
    y.samples = pass.size();
    for (bool p : pass)
        if (p) ++y.passes;
    y.yield = y.samples > 0
                  ? static_cast<double>(y.passes) / static_cast<double>(y.samples)
                  : 0.0;
    const auto [lo, hi] = wilson_interval(y.passes, y.samples);
    y.ci_low = lo;
    y.ci_high = hi;
    return y;
}

YieldEstimate estimate_yield(const eval::RowBlock& rows,
                             const std::vector<Spec>& specs) {
    if (!rows.empty() && rows.arity() != specs.size())
        throw InvalidInputError("estimate_yield: row arity mismatch");
    std::vector<bool> flags;
    flags.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::span<const double> row = rows.row(i);
        bool all = true;
        for (std::size_t c = 0; c < specs.size(); ++c)
            if (!specs[c].pass(row[c])) {
                all = false;
                break;
            }
        flags.push_back(all);
    }
    return yield_from_flags(flags);
}

} // namespace ypm::mc
