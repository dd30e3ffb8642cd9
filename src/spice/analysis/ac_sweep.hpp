#pragma once
/// \file ac_sweep.hpp
/// \brief Batch AC sweep: the prototype-reuse counterpart of run_ac.
///
/// run_ac (ac.hpp) is the reference implementation: per frequency it
/// re-runs every device's stamp_ac - which for a MOSFET re-evaluates the
/// whole EKV model - and pays fresh allocations. This
/// module is the fast path used by the chunk kernels:
///
///  * device stamps are recorded once per operating point as
///    frequency-affine terms (ac_terms.hpp) and replayed per frequency;
///  * the factorisation runs in place in a caller-held workspace
///    (linalg::InplaceLu), so the steady state allocates nothing;
///  * the transfer function is extracted point-by-point instead of
///    materialising an AcResult.
///
/// Results are bit-identical to run_ac followed by AcResult::transfer: the
/// replay reproduces stamp_ac's additions value-for-value in the same
/// order, and both paths factor through linalg::InplaceLu.
/// Devices whose stamps are not affine in omega (the behavioural OTA's
/// single-pole gain) fall back to per-frequency stamp_ac; if such a device
/// precedes an affine one in device order the plan is abandoned entirely
/// and every device stamps per frequency, preserving accumulation order.

#include <complex>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "spice/ac_terms.hpp"
#include "spice/circuit.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

/// Reusable storage for ac_sweep_transfer: MNA matrix, rhs, solution,
/// factorisation scratch and the recorded stamp plan. One workspace per
/// thread; reuse it across points of a chunk.
class AcSweepWorkspace {
public:
    friend std::vector<std::complex<double>>
    ac_sweep_transfer(Circuit&, const Solution&, const std::vector<double>&,
                      NodeId, NodeId, AcSweepWorkspace&);

private:
    linalg::MatrixC a_;
    std::vector<std::complex<double>> b_;
    std::vector<std::complex<double>> x_;
    linalg::InplaceLu<std::complex<double>> lu_;
    AcTermRecorder recorder_{0, 0};
    std::vector<const Device*> fallback_;
};

/// Sweep the circuit over `freqs` about the operating point `op` and return
/// h[i] = V(out)/V(in) at freqs[i] - bit-identical to
/// run_ac(circuit, op, freqs).transfer(out, in), but reusing `ws`.
/// \throws ypm::NumericalError on a singular frequency point or a zero
/// input response (as the reference path does).
[[nodiscard]] std::vector<std::complex<double>>
ac_sweep_transfer(Circuit& circuit, const Solution& op,
                  const std::vector<double>& freqs, NodeId out, NodeId in,
                  AcSweepWorkspace& ws);

} // namespace ypm::spice
