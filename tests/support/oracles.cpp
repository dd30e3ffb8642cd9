#include "support/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "moo/pareto.hpp"
#include "spice/ac_terms.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/measure.hpp"
#include "util/error.hpp"
#include "util/mathx.hpp"
#include "util/rng.hpp"

namespace ypm::testsupport {

namespace {

/// The AC sweep of the per-point rebuild path: per frequency, re-record
/// every device's stamp into a fresh AcTermRecorder (so the device models,
/// the full EKV evaluation for a MOSFET, run at every frequency), replay it
/// into a fresh matrix, add the gmin floor and solve with the textbook
/// ReferenceLu. Returns V(out)/V(in) per frequency.
std::vector<std::complex<double>>
reference_transfer(spice::Circuit& ckt, const spice::Solution& op,
                   const std::vector<double>& freqs, spice::NodeId out,
                   spice::NodeId in) {
    using C = std::complex<double>;
    const std::size_t n_nodes = ckt.node_count();
    const std::size_t n = ckt.unknowns();
    std::vector<C> h;
    h.reserve(freqs.size());
    for (double f : freqs) {
        spice::AcTermRecorder rec(n_nodes, n);
        for (const auto& dev : ckt.devices()) dev->stamp_ac(rec, op);
        linalg::MatrixC a(n);
        std::vector<C> b(n);
        rec.replay_matrix(2.0 * mathx::pi * f, a.data().data());
        rec.replay_rhs(b.data());
        for (std::size_t i = 0; i < n_nodes; ++i) a(i, i) += 1e-15;
        const spice::AcSolution x(n_nodes,
                                  ReferenceLu<C>(std::move(a)).solve(b));
        if (std::abs(x.voltage(in)) == 0.0)
            throw NumericalError("reference_transfer: zero input response");
        h.push_back(x.voltage(out) / x.voltage(in));
    }
    return h;
}

} // namespace

circuits::OtaPerformance rebuild_measure(const circuits::OtaConfig& config,
                                         const circuits::OtaSizing& sizing,
                                         const process::Realization* real) {
    circuits::OtaPerformance perf;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, config);
    if (real != nullptr) ckt.apply_process(*real);

    const spice::DcSolver solver;
    const spice::DcResult op = solver.solve(ckt);
    if (!op.converged) {
        perf.failure = "dc operating point did not converge";
        return perf;
    }

    const auto freqs =
        spice::log_sweep(config.f_start, config.f_stop, config.points_per_decade);
    std::vector<std::complex<double>> h;
    try {
        h = reference_transfer(ckt, op.solution, freqs, *ckt.find_node("out"),
                               *ckt.find_node("inp"));
    } catch (const NumericalError& e) {
        perf.failure = std::string("ac analysis failed: ") + e.what();
        return perf;
    }
    perf.bode = spice::bode_metrics(freqs, h);
    perf.gain_db = perf.bode.dc_gain_db;
    perf.pm_deg = perf.bode.phase_margin_deg;
    if (std::isnan(perf.pm_deg) || perf.gain_db <= 0.0) {
        perf.failure = "no unity-gain crossing (gain too low)";
        return perf;
    }
    perf.valid = true;
    return perf;
}

circuits::FilterPerformance
rebuild_measure(const circuits::FilterEvaluator& evaluator,
                const circuits::FilterSizing& sizing,
                circuits::OtaModelKind kind) {
    circuits::FilterPerformance perf;
    const circuits::FilterConfig& config = evaluator.config();
    spice::Circuit ckt = circuits::build_filter(sizing, config, kind);

    const spice::DcSolver solver;
    const spice::DcResult op = solver.solve(ckt);
    if (!op.converged) {
        perf.failure = "dc operating point did not converge";
        return perf;
    }

    const auto freqs =
        spice::log_sweep(config.f_start, config.f_stop, config.points_per_decade);
    std::vector<std::complex<double>> h;
    try {
        h = reference_transfer(ckt, op.solution, freqs, *ckt.find_node("vout"),
                               *ckt.find_node("vin"));
    } catch (const NumericalError& e) {
        perf.failure = std::string("ac analysis failed: ") + e.what();
        return perf;
    }
    return evaluator.metrics_from_transfer(freqs, h);
}

template <typename T>
ReferenceLu<T>::ReferenceLu(linalg::Matrix<T> a) : lu_(std::move(a)) {
    if (!lu_.square()) throw NumericalError("Lu: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});

    double min_pivot = std::numeric_limits<double>::infinity();
    double max_pivot = 0.0;

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude in column k.
        std::size_t piv = k;
        double best = std::abs(lu_(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double mag = std::abs(lu_(i, k));
            if (mag > best) {
                best = mag;
                piv = i;
            }
        }
        if (best == 0.0 || !std::isfinite(best))
            throw NumericalError("Lu: singular or non-finite matrix at column " +
                                 std::to_string(k));
        if (piv != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
            std::swap(perm_[k], perm_[piv]);
            sign_ = -sign_;
        }
        min_pivot = std::min(min_pivot, best);
        max_pivot = std::max(max_pivot, best);

        const T pivot = lu_(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const T factor = lu_(i, k) / pivot;
            lu_(i, k) = factor;
            if (factor == T{}) continue;
            for (std::size_t j = k + 1; j < n; ++j)
                lu_(i, j) -= factor * lu_(k, j);
        }
    }
    pivot_ratio_ = max_pivot > 0.0 ? min_pivot / max_pivot : 0.0;
}

template <typename T>
std::vector<T> ReferenceLu<T>::solve(const std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    if (b.size() != n) throw NumericalError("Lu::solve: rhs size mismatch");

    // Apply permutation: y = P b.
    std::vector<T> y(n);
    for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];

    // Forward substitution L z = y (unit diagonal).
    for (std::size_t i = 1; i < n; ++i) {
        T acc = y[i];
        for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
        y[i] = acc;
    }
    // Back substitution U x = z.
    for (std::size_t ii = n; ii-- > 0;) {
        T acc = y[ii];
        for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * y[j];
        y[ii] = acc / lu_(ii, ii);
    }
    return y;
}

template <typename T>
T ReferenceLu<T>::determinant() const {
    T det = static_cast<T>(sign_);
    for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
    return det;
}

template class ReferenceLu<double>;
template class ReferenceLu<std::complex<double>>;

std::vector<std::size_t>
pareto_front_indices(const std::vector<std::vector<double>>& objectives,
                     const std::vector<moo::ObjectiveSpec>& specs) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < objectives.size(); ++i) {
        if (moo::evaluation_failed(objectives[i])) continue;
        bool dominated = false;
        for (std::size_t j = 0; j < objectives.size() && !dominated; ++j)
            dominated = j != i && moo::dominates(objectives[j], objectives[i], specs);
        if (!dominated) front.push_back(i);
    }
    return front;
}

ReferenceFailMoments
reference_fail_moments(const std::vector<bool>& pass,
                       const std::vector<double>& log_weights) {
    ReferenceFailMoments r;
    r.samples = pass.size();
    for (double lw : log_weights) {
        if (!std::isfinite(lw))
            throw InvalidInputError(
                "reference_fail_moments: non-finite log weight");
        if (lw != 0.0) r.weighted = true;
    }
    for (bool p : pass)
        if (p) ++r.passes;
    if (!r.weighted) {
        const std::size_t fails = r.samples - r.passes;
        r.x_sum = r.x2_sum = static_cast<double>(fails);
        r.w_max = fails > 0 ? 1.0 : 0.0;
        return r;
    }
    for (std::size_t i = 0; i < pass.size(); ++i) {
        if (pass[i]) continue;
        const double w = std::exp(log_weights[i]);
        r.x_sum += w;
        r.x2_sum += w * w;
        r.w_max = std::max(r.w_max, w);
    }
    if (!std::isfinite(r.x_sum))
        throw NumericalError(
            "reference_fail_moments: fail-side weight overflow");
    return r;
}

ReferenceRng::ReferenceRng(std::uint64_t seed) : seed_(seed) {
    std::uint64_t s = seed;
    engine_.seed(splitmix64(s));
}

ReferenceRng ReferenceRng::child(std::uint64_t stream) const {
    std::uint64_t s = seed_ ^ (0xD1B54A32D192ED03ull * (stream + 1));
    return ReferenceRng(splitmix64(s));
}

double ReferenceRng::uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double ReferenceRng::gauss() {
    std::normal_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
}

std::size_t ReferenceRng::index(std::size_t n) {
    std::uniform_int_distribution<std::size_t> dist(0, n - 1);
    return dist(engine_);
}

long long ReferenceRng::integer(long long lo, long long hi) {
    std::uniform_int_distribution<long long> dist(lo, hi);
    return dist(engine_);
}

bool ReferenceRng::bernoulli(double p) { return uniform01() < p; }

std::vector<std::size_t> ReferenceRng::permutation(std::size_t n) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i) std::swap(idx[i - 1], idx[index(i)]);
    return idx;
}

} // namespace ypm::testsupport
