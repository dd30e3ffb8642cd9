#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "circuits/ota.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "moo/test_problems.hpp"
#include "moo/wbga.hpp"
#include "obs/trace.hpp"
#include "process/sampler.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/ac_sweep.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/measure.hpp"
#include "spice/devices/mosfet.hpp"
#include "spice/prototype.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ypmbench {

namespace {

using ypm::util::now_ns;
using ypm::util::seconds_between;
using ypm::util::TickNs;

constexpr std::size_t kReplayPoints = 100;
constexpr int kRepeats = 5;

/// Keeps a value observable so timed loops are not optimised away.
volatile double g_sink = 0.0;

/// Seeded replay set: sizings drawn uniformly from the paper's Table 1 box,
/// each paired with one process realisation for its geometry.
struct ReplaySet {
    std::vector<ypm::circuits::OtaSizing> sizings;
    std::vector<ypm::process::Realization> realizations;
};

ReplaySet make_replay_set(std::uint64_t seed, const ypm::circuits::OtaConfig& cfg,
                          const ypm::process::ProcessSampler& sampler) {
    ypm::Rng rng(seed);
    const auto box = ypm::circuits::OtaSizing::parameter_specs();
    ReplaySet set;
    for (std::size_t i = 0; i < kReplayPoints; ++i) {
        std::vector<double> params;
        for (const auto& p : box) params.push_back(rng.uniform(p.lo, p.hi));
        const auto sizing = ypm::circuits::OtaSizing::from_vector(params);
        const auto geometries =
            ypm::circuits::build_ota_testbench(sizing, cfg).mos_geometries();
        ypm::Rng sample_rng = rng.child(i);
        set.realizations.push_back(sampler.sample(sample_rng, geometries));
        set.sizings.push_back(sizing);
    }
    return set;
}

bool nearly_equal(double a, double b) {
    return a == b || std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
}

/// Kernel replay: the per-point kernel (OtaEvaluator::measure_chunk) and
/// its two analyses (DcSolver::solve, ac_sweep_transfer) on the same set,
/// each checked against the kernel's own result.
void probe_kernel(std::uint64_t seed, SpanLog& spans, Report& report) {
    const ypm::circuits::OtaConfig cfg;
    const ypm::circuits::OtaEvaluator evaluator(cfg);
    const ypm::process::ProcessSampler sampler(cfg.card,
                                               ypm::process::VariationSpec::c35());
    const ReplaySet set = make_replay_set(seed, cfg, sampler);
    const double n = static_cast<double>(kReplayPoints);

    std::vector<ypm::circuits::OtaPerformance> perfs =
        evaluator.measure_chunk(set.sizings, set.realizations); // warm-up
    std::vector<double> point_s;
    for (int r = 0; r < kRepeats; ++r) {
        const TickNs t0 = now_ns();
        perfs = evaluator.measure_chunk(set.sizings, set.realizations);
        const TickNs t1 = now_ns();
        spans.record("bench.circuits.measure_chunk", t0, t1, {{"points", n}});
        point_s.push_back(seconds_between(t0, t1));
    }

    // The same point sequence through one warm testbench prototype, as
    // measure_chunk runs it, with the two analyses timed separately:
    // re-bind (sizing slots as OtaPrototype assigns them, then process),
    // DcSolver::solve, ac_sweep_transfer, then the Bode measurement.
    ypm::spice::CircuitPrototype proto(
        ypm::circuits::build_ota_testbench(ypm::circuits::OtaSizing{}, cfg));
    using ypm::spice::Mosfet;
    Mosfet& m3 = proto.device<Mosfet>("m3");
    Mosfet& m6 = proto.device<Mosfet>("m6");
    Mosfet& m5 = proto.device<Mosfet>("m5");
    Mosfet& m4 = proto.device<Mosfet>("m4");
    Mosfet& m9 = proto.device<Mosfet>("m9");
    Mosfet& m7 = proto.device<Mosfet>("m7");
    Mosfet& m10 = proto.device<Mosfet>("m10");
    Mosfet& m8 = proto.device<Mosfet>("m8");
    const ypm::spice::NodeId out = proto.node("out");
    const ypm::spice::NodeId inp = proto.node("inp");
    const std::vector<double> freqs =
        ypm::spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
    const ypm::spice::DcSolver solver;
    ypm::spice::DcWorkspace dc_ws;
    ypm::spice::AcSweepWorkspace ac_ws;
    std::vector<double> dc_s;
    std::vector<double> ac_s;
    std::size_t iterations = 0;
    std::size_t fallbacks = 0;
    std::size_t swept = 0;
    std::size_t mismatches = 0;
    for (int r = 0; r < kRepeats; ++r) {
        TickNs dc_ns = 0;
        TickNs ac_ns = 0;
        const TickNs t_start = now_ns();
        for (std::size_t i = 0; i < kReplayPoints; ++i) {
            const ypm::circuits::OtaSizing& s = set.sizings[i];
            m3.set_geometry(s.w4, s.l4);
            m6.set_geometry(s.w4, s.l4);
            m5.set_geometry(s.w1, s.l1);
            m4.set_geometry(s.w1, s.l1);
            m9.set_geometry(s.w2, s.l2);
            m7.set_geometry(s.w2, s.l2);
            m10.set_geometry(s.w3, s.l3);
            m8.set_geometry(s.w3, s.l3);
            proto.bind_process(&set.realizations[i]);
            const TickNs t0 = now_ns();
            const ypm::spice::DcResult op = solver.solve(proto.circuit(), dc_ws);
            const TickNs t1 = now_ns();
            dc_ns += t1 - t0;
            if (r == 0) {
                iterations += op.iterations;
                fallbacks += op.method == "newton" ? 0 : 1;
            }
            if (!op.converged) continue;
            std::vector<std::complex<double>> h;
            bool ac_ok = true;
            try {
                h = ypm::spice::ac_sweep_transfer(proto.circuit(), op.solution,
                                                  freqs, out, inp, ac_ws);
            } catch (const ypm::NumericalError&) {
                ac_ok = false;
            }
            ac_ns += now_ns() - t1;
            if (r != 0) continue;
            ++swept;
            if (!ac_ok) {
                mismatches += perfs[i].valid ? 1 : 0;
                continue;
            }
            const auto bode = ypm::spice::bode_metrics(freqs, h);
            if (perfs[i].valid && (!nearly_equal(bode.dc_gain_db, perfs[i].gain_db) ||
                                   !nearly_equal(bode.phase_margin_deg, perfs[i].pm_deg)))
                ++mismatches;
        }
        const TickNs t_end = now_ns();
        spans.record("bench.spice.replay", t_start, t_end, {{"points", n}});
        dc_s.push_back(static_cast<double>(dc_ns) * 1e-9);
        ac_s.push_back(static_cast<double>(ac_ns) * 1e-9);
    }

    const double point_total = median(point_s);
    const double dc_total = median(dc_s);
    const double ac_total = median(ac_s);
    const double swept_n = static_cast<double>(std::max<std::size_t>(swept, 1));
    report.add("circuits.point_us", point_total / n * 1e6, "us");
    report.add("spice.dc_us", dc_total / n * 1e6, "us");
    report.add("spice.dc_newton_iters", static_cast<double>(iterations) / n, "count");
    report.add("spice.dc_fallback_frac", static_cast<double>(fallbacks) / n, "ratio");
    report.add("spice.ac_us", ac_total / swept_n * 1e6, "us");
    report.add("spice.ac_solve_ns",
               ac_total / (swept_n * static_cast<double>(freqs.size())) * 1e9, "ns");
    report.add("circuits.residual_us", (point_total - dc_total - ac_total) / n * 1e6,
               "us");
    report.check("probe.replay_consistent", mismatches == 0,
                 std::to_string(mismatches) +
                     " replayed points differ from measure_chunk");
}

/// Dense complex 13 x 13 factor + solve (linalg::InplaceLu), the OTA MNA
/// size; the matrix copy into the workspace is part of each operation.
void probe_lu(std::uint64_t seed, SpanLog& spans, Report& report) {
    constexpr std::size_t kN = 13;
    constexpr std::size_t kMatrices = 64;
    constexpr std::size_t kSweeps = 200;
    using C = std::complex<double>;
    ypm::Rng rng(seed);
    std::vector<ypm::linalg::MatrixC> mats;
    std::vector<std::vector<C>> rhs;
    for (std::size_t m = 0; m < kMatrices; ++m) {
        ypm::linalg::MatrixC a(kN);
        std::vector<C> b(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            for (std::size_t j = 0; j < kN; ++j) a(i, j) = C(rng.gauss(), rng.gauss());
            a(i, i) += C(2.0 * kN, 0.0);
            b[i] = C(rng.gauss(), rng.gauss());
        }
        mats.push_back(std::move(a));
        rhs.push_back(std::move(b));
    }
    ypm::linalg::InplaceLu<C> lu;
    ypm::linalg::MatrixC work(kN);
    std::vector<C> x;
    std::vector<double> per_op_ns;
    for (int r = 0; r < kRepeats; ++r) {
        double sink = 0.0;
        const TickNs t0 = now_ns();
        for (std::size_t s = 0; s < kSweeps; ++s)
            for (std::size_t m = 0; m < kMatrices; ++m) {
                work = mats[m];
                lu.factor(work);
                lu.solve(work, rhs[m], x);
                sink += x[0].real();
            }
        const TickNs t1 = now_ns();
        g_sink = sink;
        spans.record("bench.linalg.lu", t0, t1);
        per_op_ns.push_back(static_cast<double>(t1 - t0) /
                            static_cast<double>(kSweeps * kMatrices));
    }
    report.add("linalg.dense_lu13_ns", median(per_op_ns), "ns");
}

/// ProcessSampler::sample for the OTA's MOS inventory.
void probe_sampler(std::uint64_t seed, SpanLog& spans, Report& report) {
    constexpr std::size_t kDraws = 2000;
    const ypm::circuits::OtaConfig cfg;
    const ypm::process::ProcessSampler sampler(cfg.card,
                                               ypm::process::VariationSpec::c35());
    const auto geometries =
        ypm::circuits::build_ota_testbench(ypm::circuits::OtaSizing{}, cfg)
            .mos_geometries();
    std::vector<double> per_draw_us;
    for (int r = 0; r < kRepeats; ++r) {
        ypm::Rng rng(seed);
        double sink = 0.0;
        const TickNs t0 = now_ns();
        for (std::size_t i = 0; i < kDraws; ++i)
            sink += sampler.sample(rng, geometries).global.dvth_n;
        const TickNs t1 = now_ns();
        g_sink = sink;
        spans.record("bench.process.sample", t0, t1);
        per_draw_us.push_back(seconds_between(t0, t1) / kDraws * 1e6);
    }
    report.add("process.sample_us", median(per_draw_us), "us");
}

/// moo::Wbga::run at the paper's 100 x 100 on ZDT1 with the OTA's eight
/// parameters: evaluation costs nothing, so this is GA bookkeeping alone.
void probe_ga(std::uint64_t seed, SpanLog& spans, Report& report) {
    const ypm::moo::ZdtProblem zdt(1, ypm::circuits::OtaSizing::parameter_count);
    ypm::moo::WbgaConfig ga;
    ga.population = 100;
    ga.generations = 100;
    ga.parallel = false;
    const ypm::moo::Wbga optimiser(zdt, ga);
    std::vector<double> wall_s;
    std::size_t evaluations = 0;
    for (int r = 0; r < 3; ++r) {
        ypm::Rng rng(seed);
        const TickNs t0 = now_ns();
        const auto result = optimiser.run(rng);
        const TickNs t1 = now_ns();
        spans.record("bench.moo.wbga_run", t0, t1);
        wall_s.push_back(seconds_between(t0, t1));
        evaluations = result.evaluations;
    }
    report.add("moo.ga_overhead_s", median(wall_s), "s");
    report.check("probe.ga_evaluations", evaluations == ga.population * ga.generations,
                 std::to_string(evaluations) + " evaluations");
}

/// Construct and destroy a disarmed obs::Span: the per-site cost of the
/// instrumentation when tracing is off.
void probe_disarmed_span(SpanLog& spans, Report& report) {
    constexpr std::size_t kSpans = 20'000'000;
    const bool was_enabled = ypm::obs::Tracer::enabled();
    ypm::obs::Tracer::set_enabled(false);
    std::vector<double> per_span_ns;
    for (int r = 0; r < kRepeats; ++r) {
        const TickNs t0 = now_ns();
        for (std::size_t i = 0; i < kSpans; ++i) {
            const ypm::obs::Span span("bench.disarmed", "bench");
        }
        const TickNs t1 = now_ns();
        spans.record("bench.obs.disarmed_spans", t0, t1);
        per_span_ns.push_back(static_cast<double>(t1 - t0) / kSpans);
    }
    ypm::obs::Tracer::set_enabled(was_enabled);
    report.add("obs.disarmed_span_ns", median(per_span_ns), "ns");
}

} // namespace

void run_layer_probes(std::uint64_t seed, SpanLog& spans, Report& report) {
    probe_kernel(derive_seed(seed, 101), spans, report);
    probe_lu(derive_seed(seed, 102), spans, report);
    probe_sampler(derive_seed(seed, 103), spans, report);
    probe_ga(derive_seed(seed, 104), spans, report);
    probe_disarmed_span(spans, report);
}

} // namespace ypmbench
