#include "util/mathx.hpp"

#include <algorithm>
#include <cassert>

#include "util/error.hpp"

namespace ypm::mathx {

std::vector<double> linspace(double a, double b, std::size_t n) {
    if (n == 0) return {};
    if (n == 1) return {a};
    std::vector<double> out(n);
    const double step = (b - a) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) out[i] = a + step * static_cast<double>(i);
    out.back() = b;
    return out;
}

std::vector<double> logspace(double a, double b, std::size_t n) {
    if (a <= 0.0 || b <= 0.0)
        throw InvalidInputError("logspace: endpoints must be positive");
    auto exps = linspace(std::log10(a), std::log10(b), n);
    for (auto& e : exps) e = std::pow(10.0, e);
    if (!exps.empty()) {
        exps.front() = a;
        exps.back() = b;
    }
    return exps;
}

bool approx_equal(double a, double b, double rel, double abs) {
    const double diff = std::fabs(a - b);
    if (diff <= abs) return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return diff <= rel * scale;
}

double normalize(double x, double lo, double hi) {
    const double span = hi - lo;
    if (span == 0.0) return 0.0;
    return (x - lo) / span;
}

std::size_t bracket(std::span<const double> xs, double x) {
    assert(xs.size() >= 2);
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    const std::ptrdiff_t idx = std::distance(xs.begin(), it) - 1;
    const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(xs.size()) - 2;
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(idx, 0, hi));
}

double interp_linear(const std::vector<double>& xs, const std::vector<double>& ys,
                     double x) {
    if (xs.size() != ys.size() || xs.size() < 2)
        throw InvalidInputError("interp_linear: need >= 2 matched samples");
    if (x <= xs.front()) return ys.front();
    if (x >= xs.back()) return ys.back();
    const std::size_t i = bracket(xs, x);
    const double t = (x - xs[i]) / (xs[i + 1] - xs[i]);
    return lerp(ys[i], ys[i + 1], t);
}

double wrap_phase_deg(double deg) {
    while (deg > 0.0) deg -= 360.0;
    while (deg <= -360.0) deg += 360.0;
    return deg;
}

} // namespace ypm::mathx
