#pragma once
/// \file ac_sweep.hpp
/// \brief The AC sweep: one loop behind run_ac (ac.hpp) and
///        ac_sweep_transfer.
///
/// Every device records its small-signal stamp once per operating point
/// (ac_terms.hpp) and the excitation vector builds once. Per frequency the
/// loop zeroes the matrix, replays the recorded terms, adds the conductance
/// floor and factors and solves in place with the workspace's
/// linalg::InplaceLu, so the steady state allocates nothing. run_ac keeps
/// every solution as an AcResult; ac_sweep_transfer keeps only
/// V(out)/V(in), bit-identical to run_ac(...).transfer(out, in).

#include <complex>
#include <span>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "spice/ac_terms.hpp"
#include "spice/circuit.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

/// Reusable storage for the AC sweep: MNA matrix, rhs, solution,
/// factorisation scratch and the recorded stamp terms. One workspace per
/// thread; reuse it across points of a chunk.
struct AcSweepWorkspace {
    linalg::MatrixC a;
    std::vector<std::complex<double>> b;
    std::vector<std::complex<double>> x;
    linalg::InplaceLu<std::complex<double>> lu;
    AcTermRecorder recorder{0, 0};
};

/// Stop rule of ac_sweep_transfer: called with h[0..k] after each
/// frequency k; true ends the sweep there (e.g. bode_sweep_complete).
using SweepStop = bool (*)(std::span<const std::complex<double>> h);

/// Sweep the circuit over `freqs` about the operating point `op` and return
/// h[i] = V(out)/V(in) at freqs[i], reusing `ws`, up to the first point
/// where `stop` (if given) returns true; frequencies past it are not solved.
/// \throws ypm::NumericalError on a singular swept frequency point or a
/// zero input response.
[[nodiscard]] std::vector<std::complex<double>>
ac_sweep_transfer(Circuit& circuit, const Solution& op,
                  const std::vector<double>& freqs, NodeId out, NodeId in,
                  AcSweepWorkspace& ws, SweepStop stop = nullptr);

} // namespace ypm::spice
