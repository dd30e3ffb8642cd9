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

std::size_t bracket(std::span<const double> xs, double x) {
    assert(xs.size() >= 2);
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    const std::ptrdiff_t idx = std::distance(xs.begin(), it) - 1;
    const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(xs.size()) - 2;
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(idx, 0, hi));
}

} // namespace ypm::mathx
