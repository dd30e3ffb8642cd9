#pragma once
/// \file mathx.hpp
/// \brief Numeric helpers used throughout: grids, dB conversion, clamping,
///        approximate comparison and simple interpolation.

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace ypm::mathx {

inline constexpr double pi = 3.14159265358979323846;

/// n points uniformly spaced on [a, b] inclusive (n >= 2; n==1 yields {a}).
[[nodiscard]] std::vector<double> linspace(double a, double b, std::size_t n);

/// n points logarithmically spaced on [a, b] inclusive (a, b > 0).
[[nodiscard]] std::vector<double> logspace(double a, double b, std::size_t n);

/// Voltage-ratio decibels: 20*log10(|x|).
[[nodiscard]] inline double db20(double x) { return 20.0 * std::log10(std::fabs(x)); }

/// Inverse of db20.
[[nodiscard]] inline double undb20(double db) { return std::pow(10.0, db / 20.0); }

[[nodiscard]] inline double deg_from_rad(double r) { return r * 180.0 / pi; }
[[nodiscard]] inline double rad_from_deg(double d) { return d * pi / 180.0; }

/// Clamp x into [lo, hi].
[[nodiscard]] inline double clamp(double x, double lo, double hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}

/// Linear blend a + t*(b - a).
[[nodiscard]] inline double lerp(double a, double b, double t) { return a + t * (b - a); }

/// Relative/absolute tolerant comparison.
[[nodiscard]] bool approx_equal(double a, double b, double rel = 1e-9, double abs = 1e-12);

/// Map x in [lo, hi] to [0, 1] (no clamping; degenerate range maps to 0).
[[nodiscard]] double normalize(double x, double lo, double hi);

/// Map t in [0, 1] back to [lo, hi].
[[nodiscard]] inline double denormalize(double t, double lo, double hi) {
    return lo + t * (hi - lo);
}

/// Piecewise-linear interpolation of (xs, ys) at x. xs must be strictly
/// increasing. Out-of-range x clamps to the end values.
[[nodiscard]] double interp_linear(const std::vector<double>& xs,
                                   const std::vector<double>& ys, double x);

/// Index i such that xs[i] <= x < xs[i+1] (clamped to [0, n-2]).
[[nodiscard]] std::size_t bracket(std::span<const double> xs, double x);

/// Wrap a phase in degrees into (-360, 0] - the convention used for Bode
/// phase of a negative-feedback loop gain.
[[nodiscard]] double wrap_phase_deg(double deg);

} // namespace ypm::mathx
