#pragma once
/// \file dc.hpp
/// \brief DC operating-point solver: damped Newton-Raphson with gmin
///        stepping and source stepping fallbacks.
///
/// Robustness matters more than raw speed here: the WBGA evaluates 10,000
/// sizings (paper Table 5) and every one must either converge or fail
/// loudly so the optimiser can penalise it. The schedule is fixed: plain
/// Newton, then gmin stepping, then source stepping, each Newton attempt
/// capped at 150 iterations of 0.6 V damped steps (dc.cpp).

#include <string>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "spice/circuit.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

/// Reusable DC solve storage: the MNA matrix, rhs and factorisation scratch
/// survive across Newton iterations and across points of a batch, so the
/// steady state allocates nothing per solve. Results are bit-identical to
/// the workspace-free overloads (which route through a local workspace).
struct DcWorkspace {
    linalg::MatrixD a;
    std::vector<double> b;
    std::vector<double> x_new;
    linalg::InplaceLu<double> lu;
};

/// Node-to-ground conductance floor (S) every Newton iteration stamps; it
/// keeps the Jacobian non-singular while devices are cut off.
inline constexpr double kDcGmin = 1e-12;

struct DcResult {
    bool converged = false;
    Solution solution;
    std::size_t iterations = 0; ///< total Newton iterations spent
    std::string method;         ///< "newton", "gmin-stepping", "source-stepping"
};

class DcSolver {
public:
    /// Solve from a cold start (all unknowns zero).
    [[nodiscard]] DcResult solve(Circuit& circuit) const;

    /// Solve from a warm start (e.g. the nominal OP during Monte Carlo).
    [[nodiscard]] DcResult solve(Circuit& circuit, const Solution& initial) const;

    /// Cold-start solve reusing a caller-held workspace (batch kernels call
    /// this once per point of a chunk). Bit-identical to solve(circuit).
    [[nodiscard]] DcResult solve(Circuit& circuit, DcWorkspace& ws) const;

    /// Warm-start solve reusing a caller-held workspace.
    [[nodiscard]] DcResult solve(Circuit& circuit, const Solution& initial,
                                 DcWorkspace& ws) const;

private:
    /// One Newton attempt; returns true on convergence, updating x.
    [[nodiscard]] bool newton(Circuit& circuit, Solution& x, double gmin,
                              double source_scale, std::size_t& iterations,
                              DcWorkspace& ws) const;
};

/// Convenience: solve and throw ypm::NumericalError on failure.
[[nodiscard]] Solution solve_op(Circuit& circuit);

} // namespace ypm::spice
