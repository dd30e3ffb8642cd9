#include "support/mna_capture.hpp"

#include <utility>

#include "circuits/ota.hpp"
#include "process/sampler.hpp"
#include "spice/ac_terms.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/stamper.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace ypm::testsupport {

namespace {

/// The Jacobian and rhs one DcSolver Newton iteration factors at iterate x.
LinearSystem<double> dc_system(const spice::Circuit& ckt,
                               const spice::Solution& x) {
    const std::size_t n_nodes = ckt.node_count();
    LinearSystem<double> sys{linalg::MatrixD(ckt.unknowns()),
                             std::vector<double>(ckt.unknowns(), 0.0)};
    spice::RealStamper stamper(sys.a, sys.b, n_nodes);
    for (const auto& dev : ckt.devices()) dev->stamp_dc(stamper, x);
    for (std::size_t i = 0; i < n_nodes; ++i) sys.a(i, i) += spice::kDcGmin;
    return sys;
}

} // namespace

OtaMnaCapture capture_ota_mna(std::size_t points, std::uint64_t seed) {
    using C = std::complex<double>;
    const circuits::OtaConfig cfg;
    const process::ProcessSampler sampler(cfg.card,
                                          process::VariationSpec::c35());
    const auto box = circuits::OtaSizing::parameter_specs();
    const auto freqs =
        spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
    const spice::DcSolver solver;

    OtaMnaCapture out;
    out.frequencies = freqs.size();
    Rng rng(seed);
    for (std::size_t draw = 0; out.points < points; ++draw) {
        if (draw >= 4 * points)
            throw NumericalError("capture_ota_mna: too many DC failures");
        std::vector<double> params;
        for (const auto& p : box) params.push_back(rng.uniform(p.lo, p.hi));
        spice::Circuit ckt = circuits::build_ota_testbench(
            circuits::OtaSizing::from_vector(params), cfg);
        Rng sample_rng = rng.child(draw);
        ckt.apply_process(sampler.sample(sample_rng, ckt.mos_geometries()));
        const spice::DcResult op = solver.solve(ckt);
        if (!op.converged) continue;
        ++out.points;

        spice::Solution half = op.solution;
        for (double& v : half.raw()) v *= 0.5;
        out.dc.push_back(dc_system(
            ckt, spice::Solution(ckt.node_count(), ckt.branch_count())));
        out.dc.push_back(dc_system(ckt, half));
        out.dc.push_back(dc_system(ckt, op.solution));

        const std::size_t n_nodes = ckt.node_count();
        const std::size_t n = ckt.unknowns();
        spice::AcTermRecorder rec(n_nodes, n);
        for (const auto& dev : ckt.devices()) dev->stamp_ac(rec, op.solution);
        std::vector<C> b(n);
        rec.replay_rhs(b.data());
        for (double f : freqs) {
            linalg::MatrixC a(n);
            rec.replay_matrix(2.0 * mathx::pi * f, a.data().data());
            for (std::size_t i = 0; i < n_nodes; ++i) a(i, i) += 1e-15;
            out.ac.push_back({std::move(a), b});
        }
    }
    return out;
}

} // namespace ypm::testsupport
