#pragma once
/// \file ac.hpp
/// \brief Small-signal AC analysis: complex MNA solve per frequency point,
///        linearised about a DC operating point.
///
/// run_ac keeps the full complex solution at every frequency (Fig. 8, the
/// kernel bench, tests). It runs the one sweep loop of ac_sweep.hpp, which
/// also serves the transfer-only ac_sweep_transfer of the batch kernels.

#include <complex>
#include <vector>

#include "spice/circuit.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

struct AcResult {
    std::vector<double> freqs;      ///< Hz
    std::vector<AcSolution> points; ///< one complex solution per frequency

    /// Transfer function out/in (in typically the AC-driven input node).
    [[nodiscard]] std::vector<std::complex<double>>
    transfer(NodeId out, NodeId in) const;
};

/// Run an AC sweep. \param op converged DC operating point of `circuit`.
/// \throws ypm::NumericalError if any frequency point is singular.
/// Defined with the sweep loop in ac_sweep.cpp.
[[nodiscard]] AcResult run_ac(Circuit& circuit, const Solution& op,
                              const std::vector<double>& freqs);

/// Standard logarithmic sweep helper: points_per_decade log-spaced points
/// covering [f_start, f_stop].
[[nodiscard]] std::vector<double> log_sweep(double f_start, double f_stop,
                                            std::size_t points_per_decade);

} // namespace ypm::spice
