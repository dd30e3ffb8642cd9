#include "spice/analysis/ac_sweep.hpp"

#include <string>

#include "spice/analysis/ac.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"

namespace ypm::spice {

namespace {

/// The sweep loop (see the header comment); `visit(x)` takes each solution
/// in turn and returns false to stop. `who` names the caller in errors.
template <typename Visit>
void sweep(const char* who, Circuit& circuit, const Solution& op,
           const std::vector<double>& freqs, AcSweepWorkspace& ws,
           Visit&& visit) {
    circuit.finalize();
    if (op.size() != circuit.unknowns())
        throw InvalidInputError(std::string(who) +
                                ": operating point does not match circuit");

    const std::size_t n_nodes = circuit.node_count();
    const std::size_t n = circuit.unknowns();
    if (ws.a.rows() != n) ws.a = linalg::MatrixC(n);

    ws.recorder.reset(n_nodes, n);
    for (const auto& dev : circuit.devices()) dev->stamp_ac(ws.recorder, op);
    ws.b.assign(n, std::complex<double>{});
    ws.recorder.replay_rhs(ws.b.data());

    for (double f : freqs) {
        if (!(f > 0.0))
            throw InvalidInputError(std::string(who) +
                                    ": frequencies must be > 0");
        ws.a.set_zero();
        ws.recorder.replay_matrix(2.0 * mathx::pi * f, ws.a.data().data());
        // Tiny conductance floor mirrors the DC gmin and keeps isolated
        // nodes (e.g. behind DC-blocked paths) non-singular.
        for (std::size_t i = 0; i < n_nodes; ++i) ws.a(i, i) += 1e-15;
        ws.lu.factor(ws.a);
        ws.lu.solve(ws.a, ws.b, ws.x);
        if (!visit(ws.x)) return;
    }
}

} // namespace

AcResult run_ac(Circuit& circuit, const Solution& op,
                const std::vector<double>& freqs) {
    AcResult result;
    result.freqs = freqs;
    result.points.reserve(freqs.size());
    AcSweepWorkspace ws;
    sweep("run_ac", circuit, op, freqs, ws,
          [&](const std::vector<std::complex<double>>& x) {
              result.points.emplace_back(circuit.node_count(), x);
              return true;
          });
    return result;
}

std::vector<std::complex<double>>
ac_sweep_transfer(Circuit& circuit, const Solution& op,
                  const std::vector<double>& freqs, NodeId out, NodeId in,
                  AcSweepWorkspace& ws, SweepStop stop) {
    if (out == ground || in == ground)
        throw InvalidInputError(
            "ac_sweep_transfer: probe nodes must not be ground");
    const std::size_t out_idx = static_cast<std::size_t>(out) - 1;
    const std::size_t in_idx = static_cast<std::size_t>(in) - 1;
    std::vector<std::complex<double>> h;
    h.reserve(freqs.size());
    sweep("ac_sweep_transfer", circuit, op, freqs, ws,
          [&](const std::vector<std::complex<double>>& x) {
              if (std::abs(x[in_idx]) == 0.0)
                  throw NumericalError(
                      "AcResult::transfer: zero input response");
              h.push_back(x[out_idx] / x[in_idx]);
              return stop == nullptr || !stop(h);
          });
    return h;
}

} // namespace ypm::spice
