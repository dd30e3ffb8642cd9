#pragma once
/// \file measure.hpp
/// \brief Frequency-response measurements: the open-loop gain / phase-margin
///        extraction the paper's objective functions are built on, plus
///        filter-oriented metrics (cutoff, stopband attenuation).

#include <complex>
#include <span>
#include <vector>

namespace ypm::spice {

/// Metrics extracted from a transfer function H(f).
/// Quantities that do not exist for the given response (e.g. no unity
/// crossing) are reported as NaN.
struct BodeMetrics {
    double dc_gain_db = 0.0;        ///< |H| at the lowest swept frequency
    double unity_freq = 0.0;        ///< f where |H| crosses 1 (Hz)
    double phase_margin_deg = 0.0;  ///< 180 + phase(H) at unity_freq
    double f3db = 0.0;              ///< -3 dB frequency (Hz)
    double gbw = 0.0;               ///< dc gain (linear) * f3db
};

/// Extract Bode metrics. freqs must be ascending; phase is unwrapped across
/// the sweep before the margin is read.
[[nodiscard]] BodeMetrics bode_metrics(std::span<const double> freqs,
                                       std::span<const std::complex<double>> h);

/// Stop rule for ac_sweep_transfer, called after every point: true when
/// point j = h.size() - 2 >= 1 has |H| <= min(0, dc gain - 3.0103) dB, the
/// dc gain being finite and > 0 and no point NaN. The first bracketing pairs
/// of the unity and -3 dB crossings then lie before j, so bode_metrics over
/// h equals it over any continuation bit for bit.
[[nodiscard]] bool bode_sweep_complete(std::span<const std::complex<double>> h);

/// Magnitude in dB per point (-400 dB for a zero or NaN magnitude).
[[nodiscard]] std::vector<double>
magnitude_db(std::span<const std::complex<double>> h);

/// Unwrapped phase in degrees per point (continuous across the sweep).
[[nodiscard]] std::vector<double>
phase_deg_unwrapped(std::span<const std::complex<double>> h);

/// Filter-style measurements on a lowpass response.
struct LowpassMetrics {
    double passband_gain_db = 0.0; ///< gain at the lowest swept frequency
    double fc = 0.0;               ///< -3 dB cutoff (Hz), NaN if absent
    double stopband_atten_db = 0.0;///< passband gain - gain at f_stop (dB)
};

/// \param f_stop frequency at which stopband attenuation is evaluated.
[[nodiscard]] LowpassMetrics lowpass_metrics(
    std::span<const double> freqs, std::span<const std::complex<double>> h,
    double f_stop);

} // namespace ypm::spice
