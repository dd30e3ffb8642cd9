#include "spice/analysis/dc.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/lu.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/mathx.hpp"

namespace ypm::spice {

namespace {

constexpr std::size_t kMaxIterations = 150; ///< per Newton attempt
constexpr double kVtol = 1e-6;   ///< absolute node-voltage tolerance (V)
constexpr double kReltol = 1e-6; ///< relative tolerance
constexpr double kMaxStep = 0.6; ///< Newton damping: max |dV| per iter (V)

} // namespace

bool DcSolver::newton(Circuit& circuit, Solution& x, double gmin,
                      double source_scale, std::size_t& iterations,
                      DcWorkspace& ws) const {
    const std::size_t n_nodes = circuit.node_count();
    const std::size_t n = circuit.unknowns();
    if (n == 0) return true;

    if (ws.a.rows() != n) ws.a = linalg::MatrixD(n);
    ws.b.resize(n);

    for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
        ++iterations;
        ws.a.set_zero();
        std::fill(ws.b.begin(), ws.b.end(), 0.0);
        RealStamper stamper(ws.a, ws.b, n_nodes, source_scale);
        for (const auto& dev : circuit.devices()) dev->stamp_dc(stamper, x);
        // gmin from every node to ground keeps the Jacobian non-singular
        // while devices are cut off.
        for (std::size_t i = 0; i < n_nodes; ++i) ws.a(i, i) += gmin;

        std::vector<double>& x_new = ws.x_new;
        try {
            // In-place factor (ws.a becomes the packed LU and is re-stamped
            // next iteration); identical arithmetic to linalg::solve.
            ws.lu.factor(ws.a);
            ws.lu.solve(ws.a, ws.b, x_new);
        } catch (const NumericalError&) {
            return false; // singular system: let the caller escalate
        }

        // Damped update with per-unknown step limiting on node voltages.
        bool converged = true;
        for (std::size_t i = 0; i < n; ++i) {
            double delta = x_new[i] - x.raw()[i];
            if (!std::isfinite(delta)) return false;
            if (i < n_nodes)
                delta = mathx::clamp(delta, -kMaxStep, kMaxStep);
            x.raw()[i] += delta;
            const double scale =
                std::max(std::fabs(x.raw()[i]), std::fabs(x_new[i]));
            const double tol = kVtol + kReltol * scale;
            if (i < n_nodes) {
                if (std::fabs(delta) > tol) converged = false;
            } else {
                // Branch currents: relative check with a loose floor.
                if (std::fabs(delta) > 1e-9 + kReltol * scale)
                    converged = false;
            }
        }
        if (converged && iter > 0) return true;
    }
    return false;
}

DcResult DcSolver::solve(Circuit& circuit) const {
    DcWorkspace ws;
    return solve(circuit, ws);
}

DcResult DcSolver::solve(Circuit& circuit, const Solution& initial) const {
    DcWorkspace ws;
    return solve(circuit, initial, ws);
}

DcResult DcSolver::solve(Circuit& circuit, DcWorkspace& ws) const {
    circuit.finalize();
    const Solution cold(circuit.node_count(), circuit.branch_count());
    return solve(circuit, cold, ws);
}

DcResult DcSolver::solve(Circuit& circuit, const Solution& initial,
                         DcWorkspace& ws) const {
    circuit.finalize();
    DcResult result;
    result.solution = initial;
    if (result.solution.size() != circuit.unknowns())
        result.solution = Solution(circuit.node_count(), circuit.branch_count());

    // Strategy 1: plain Newton from the initial point.
    if (newton(circuit, result.solution, kDcGmin, 1.0, result.iterations, ws)) {
        result.converged = true;
        result.method = "newton";
        return result;
    }

    // Strategy 2: gmin stepping - solve with a heavily damped circuit
    // (gmin 1e-3) and progressively remove the damping.
    {
        Solution x(circuit.node_count(), circuit.branch_count());
        bool ok = true;
        for (double gmin = 1e-3; gmin >= kDcGmin * 0.99; gmin *= 0.01) {
            if (!newton(circuit, x, gmin, 1.0, result.iterations, ws)) {
                ok = false;
                break;
            }
        }
        if (ok && newton(circuit, x, kDcGmin, 1.0, result.iterations, ws)) {
            result.converged = true;
            result.method = "gmin-stepping";
            result.solution = x;
            return result;
        }
    }

    // Strategy 3: source stepping - ramp the supplies from zero in ten
    // steps. An integer counter makes the last step exactly 1.0 (summing
    // 0.1 ten times stops at 0.9999999999999999).
    {
        Solution x(circuit.node_count(), circuit.branch_count());
        bool ok = true;
        for (int k = 1; k <= 10; ++k) {
            if (!newton(circuit, x, kDcGmin, k / 10.0, result.iterations,
                        ws)) {
                ok = false;
                break;
            }
        }
        if (ok) {
            result.converged = true;
            result.method = "source-stepping";
            result.solution = x;
            return result;
        }
    }

    log::debug("DcSolver: no convergence after ", result.iterations, " iterations");
    result.converged = false;
    return result;
}

Solution solve_op(Circuit& circuit) {
    const DcSolver solver;
    DcResult result = solver.solve(circuit);
    if (!result.converged)
        throw NumericalError("solve_op: DC operating point did not converge");
    return std::move(result.solution);
}

} // namespace ypm::spice
