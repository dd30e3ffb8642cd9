#include "spice/measure.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::spice {

namespace {

constexpr double nan_v = std::numeric_limits<double>::quiet_NaN();

constexpr double minus_3db = 3.0103; // 20 log10(sqrt(2))

/// |v| in dB; a zero or NaN magnitude reads as -400 dB.
double db(std::complex<double> v) {
    const double mag = std::abs(v);
    return mag > 0.0 ? 20.0 * std::log10(mag) : -400.0;
}

void check_sweep(std::span<const double> freqs,
                 std::span<const std::complex<double>> h) {
    if (freqs.size() != h.size() || freqs.size() < 2)
        throw InvalidInputError("measure: need >= 2 matched sweep points");
    for (std::size_t i = 0; i + 1 < freqs.size(); ++i)
        if (!(freqs[i] < freqs[i + 1]))
            throw InvalidInputError("measure: frequencies must be ascending");
}

/// Interpolate x (log f) where series crosses `target`, scanning upward.
/// Returns NaN when no crossing exists.
double crossing_logf(std::span<const double> freqs,
                     const std::vector<double>& series, double target) {
    for (std::size_t i = 0; i + 1 < series.size(); ++i) {
        const double a = series[i] - target;
        const double b = series[i + 1] - target;
        if (a == 0.0) return freqs[i];
        if ((a > 0.0 && b <= 0.0) || (a < 0.0 && b >= 0.0)) {
            const double t = a / (a - b);
            const double lf =
                mathx::lerp(std::log10(freqs[i]), std::log10(freqs[i + 1]), t);
            return std::pow(10.0, lf);
        }
    }
    return nan_v;
}

/// Interpolate series value at frequency f (linear in log f).
double value_at_logf(std::span<const double> freqs,
                     const std::vector<double>& series, double f) {
    if (f <= freqs.front()) return series.front();
    if (f >= freqs.back()) return series.back();
    const std::size_t i = mathx::bracket(freqs, f);
    const double t = (std::log10(f) - std::log10(freqs[i])) /
                     (std::log10(freqs[i + 1]) - std::log10(freqs[i]));
    return mathx::lerp(series[i], series[i + 1], t);
}

} // namespace

std::vector<double> magnitude_db(std::span<const std::complex<double>> h) {
    std::vector<double> out;
    out.reserve(h.size());
    for (const auto& v : h) out.push_back(db(v));
    return out;
}

std::vector<double> phase_deg_unwrapped(std::span<const std::complex<double>> h) {
    std::vector<double> out;
    out.reserve(h.size());
    double prev = 0.0;
    double offset = 0.0;
    for (std::size_t i = 0; i < h.size(); ++i) {
        const double raw = mathx::deg_from_rad(std::arg(h[i]));
        if (i > 0) {
            double diff = raw + offset - prev;
            while (diff > 180.0) {
                offset -= 360.0;
                diff -= 360.0;
            }
            while (diff < -180.0) {
                offset += 360.0;
                diff += 360.0;
            }
        }
        const double unwrapped = raw + offset;
        out.push_back(unwrapped);
        prev = unwrapped;
    }
    return out;
}

BodeMetrics bode_metrics(std::span<const double> freqs,
                         std::span<const std::complex<double>> h) {
    check_sweep(freqs, h);
    const auto mag_db = magnitude_db(h);
    const auto phase = phase_deg_unwrapped(h);

    BodeMetrics m;
    m.dc_gain_db = mag_db.front();

    m.unity_freq = crossing_logf(freqs, mag_db, 0.0);
    if (std::isnan(m.unity_freq)) {
        m.phase_margin_deg = nan_v;
    } else {
        const double phase_at_unity = value_at_logf(freqs, phase, m.unity_freq);
        m.phase_margin_deg = 180.0 + phase_at_unity;
    }

    const double f180 = crossing_logf(freqs, phase, -180.0);
    m.gain_margin_db =
        std::isnan(f180) ? nan_v : -value_at_logf(freqs, mag_db, f180);

    m.f3db = crossing_logf(freqs, mag_db, m.dc_gain_db - minus_3db);
    m.gbw = std::isnan(m.f3db) ? nan_v : mathx::undb20(m.dc_gain_db) * m.f3db;
    return m;
}

bool bode_sweep_complete(std::span<const std::complex<double>> h) {
    if (h.size() < 3) return false;
    const double at_j = db(h[h.size() - 2]);
    if (at_j > 0.0) return false;
    const double dc = db(h.front());
    if (!(dc > 0.0 && std::isfinite(dc)) || at_j > dc - minus_3db) return false;
    for (const auto& v : h)
        if (std::isnan(v.real()) || std::isnan(v.imag())) return false;
    return true;
}

LowpassMetrics lowpass_metrics(std::span<const double> freqs,
                               std::span<const std::complex<double>> h,
                               double f_stop) {
    check_sweep(freqs, h);
    const auto mag_db = magnitude_db(h);
    LowpassMetrics m;
    m.passband_gain_db = mag_db.front();
    m.fc = crossing_logf(freqs, mag_db, m.passband_gain_db - minus_3db);
    m.stopband_atten_db = m.passband_gain_db - value_at_logf(freqs, mag_db, f_stop);
    return m;
}

} // namespace ypm::spice
