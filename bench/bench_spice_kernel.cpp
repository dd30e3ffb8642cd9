// Ablation A4 - simulator kernel throughput.
//
// The flow's cost is dominated by DC Newton solves and AC sweeps of the OTA
// testbench; this binary benchmarks those kernels plus the underlying LU
// factorisation at representative sizes, so changes to the numerics are
// caught before they hit the multi-minute experiments. The chunk benchmarks
// at the bottom report the headline engine number: per-point testbench
// rebuild vs prototype-reuse batch evaluation at paper-scale chunk sizes
// (population 100), with a bit-identity cross-check between the two paths.
// The rebuild path is the reference oracle from tests/support
// (ypm_test_support), the same one the unit tests compare against.

#include <benchmark/benchmark.h>

#include <array>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "circuits/filter.hpp"
#include "circuits/ota.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "linalg/lu.hpp"
#include "mc/monte_carlo.hpp"
#include "obs/trace.hpp"
#include "process/variation.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "support/mna_capture.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

using namespace ypm;

namespace {

/// Deterministic sizing chunk spanning the Table 1 box (seeded so the
/// rebuild and prototype benches see identical work).
std::vector<circuits::OtaSizing> sizing_chunk(std::size_t n) {
    Rng rng(2008);
    const auto specs = circuits::OtaSizing::parameter_specs();
    std::vector<circuits::OtaSizing> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> v;
        v.reserve(specs.size());
        for (const auto& s : specs) v.push_back(rng.uniform(s.lo, s.hi));
        out.push_back(circuits::OtaSizing::from_vector(v));
    }
    return out;
}

bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Objective vectors of the two paths must agree bit-for-bit.
bool chunk_matches_rebuild(const circuits::OtaEvaluator& evaluator,
                           const std::vector<circuits::OtaSizing>& sizings) {
    const auto chunk = evaluator.measure_chunk(sizings);
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto scalar =
            testsupport::rebuild_measure(evaluator.config(), sizings[i]);
        if (scalar.valid != chunk[i].valid) return false;
        if (!scalar.valid) continue;
        if (!bits_equal(scalar.gain_db, chunk[i].gain_db) ||
            !bits_equal(scalar.pm_deg, chunk[i].pm_deg))
            return false;
    }
    return true;
}

std::vector<circuits::FilterSizing> filter_sizing_chunk(std::size_t n) {
    Rng rng(42);
    std::vector<circuits::FilterSizing> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back({rng.uniform(2e-12, 60e-12), rng.uniform(2e-12, 60e-12),
                       rng.uniform(2e-12, 60e-12)});
    return out;
}

bool filter_chunk_matches_rebuild(
    const circuits::FilterEvaluator& evaluator,
    const std::vector<circuits::FilterSizing>& sizings,
    circuits::OtaModelKind kind) {
    const auto chunk = evaluator.measure_chunk(sizings, kind);
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto scalar =
            testsupport::rebuild_measure(evaluator, sizings[i], kind);
        if (scalar.valid != chunk[i].valid) return false;
        if (!scalar.valid) continue;
        if (!bits_equal(scalar.fc, chunk[i].fc) ||
            !bits_equal(scalar.worst_passband_dev_db,
                        chunk[i].worst_passband_dev_db))
            return false;
    }
    return true;
}

void BM_LuFactorSolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    linalg::MatrixD a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
        a(i, i) += static_cast<double>(n);
    }
    std::vector<double> b(n, 1.0);
    for (auto _ : state) {
        auto x = linalg::solve(a, b);
        benchmark::DoNotOptimize(x);
    }
    state.SetComplexityN(static_cast<long long>(n));
}
BENCHMARK(BM_LuFactorSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_LuComplexFactorSolve(benchmark::State& state) {
    using C = std::complex<double>;
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(43);
    linalg::MatrixC a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        a(i, i) += C(static_cast<double>(n), 0.0);
    }
    std::vector<C> b(n, C(1.0, 0.0));
    for (auto _ : state) {
        auto x = linalg::solve(a, b);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_LuComplexFactorSolve)->Arg(8)->Arg(16)->Arg(32);

// ------------------------------------------- LU on the OTA's AC systems
//
// Factor + solve of the OTA's captured AC systems (6 seeded sizing +
// process points x 109 sweep frequencies, tests/support/mna_capture; 1.8 MB,
// so a pass runs from L2 and times arithmetic, not memory): the textbook
// ReferenceLu against the production InplaceLu, which skips the exact zeros
// of the MNA pattern. Both copy each matrix once per solve; the inplace
// bench first checks every solution against the reference bit for bit.
// The bench-smoke job gates the median time ratio of an interleaved run
// (scripts/check_bench.py sparse_lu).

const std::vector<testsupport::LinearSystem<std::complex<double>>>&
ota_ac_systems() {
    static const auto capture = testsupport::capture_ota_mna(6, 2016);
    return capture.ac;
}

void set_solve_counters(benchmark::State& state, std::size_t systems) {
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(systems));
    state.counters["systems"] = static_cast<double>(systems);
}

void BM_OtaAcLuReference(benchmark::State& state) {
    const auto& systems = ota_ac_systems();
    for (auto _ : state)
        for (const auto& sys : systems) {
            auto x = testsupport::ReferenceLu<std::complex<double>>(sys.a)
                         .solve(sys.b);
            benchmark::DoNotOptimize(x);
        }
    set_solve_counters(state, systems.size());
}
BENCHMARK(BM_OtaAcLuReference)->Unit(benchmark::kMicrosecond);

void BM_OtaAcLuInplace(benchmark::State& state) {
    const auto& systems = ota_ac_systems();
    linalg::InplaceLu<std::complex<double>> lu;
    linalg::MatrixC work;
    std::vector<std::complex<double>> x;
    for (const auto& sys : systems) {
        work = sys.a;
        lu.factor(work);
        lu.solve(work, sys.b, x);
        const auto ref =
            testsupport::ReferenceLu<std::complex<double>>(sys.a).solve(sys.b);
        if (std::memcmp(x.data(), ref.data(), x.size() * sizeof x[0]) != 0) {
            state.SkipWithError("InplaceLu diverges from ReferenceLu");
            return;
        }
    }
    for (auto _ : state)
        for (const auto& sys : systems) {
            work = sys.a;
            lu.factor(work);
            lu.solve(work, sys.b, x);
            benchmark::DoNotOptimize(x.data());
            benchmark::ClobberMemory();
        }
    set_solve_counters(state, systems.size());
}
BENCHMARK(BM_OtaAcLuInplace)->Unit(benchmark::kMicrosecond);

void BM_OtaDcOperatingPoint(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
        const spice::DcSolver solver;
        auto op = solver.solve(ckt);
        benchmark::DoNotOptimize(op);
    }
}
BENCHMARK(BM_OtaDcOperatingPoint)->Unit(benchmark::kMicrosecond);

void BM_OtaAcSweep(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    const spice::DcSolver solver;
    const auto op = solver.solve(ckt);
    const auto freqs = spice::log_sweep(cfg.f_start, cfg.f_stop,
                                        cfg.points_per_decade);
    for (auto _ : state) {
        auto ac = spice::run_ac(ckt, op.solution, freqs);
        benchmark::DoNotOptimize(ac);
    }
    state.counters["freq_points"] = static_cast<double>(freqs.size());
}
BENCHMARK(BM_OtaAcSweep)->Unit(benchmark::kMillisecond);

void BM_OtaFullMeasurement(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        auto perf = evaluator.measure(sizing);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_OtaFullMeasurement)->Unit(benchmark::kMillisecond);

void BM_CircuitConstruction(benchmark::State& state) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    for (auto _ : state) {
        auto ckt = circuits::build_ota_testbench(sizing, cfg);
        benchmark::DoNotOptimize(ckt);
    }
}
BENCHMARK(BM_CircuitConstruction)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ chunk kernel comparison
//
// The headline pair: the same chunk of random sizings measured by
// rebuilding the full testbench per point (the rebuild oracle) vs through
// one shared CircuitPrototype (measure_chunk). Identical work,
// bit-identical objective vectors; `points_per_second` is the throughput
// to compare.

void BM_OtaChunkRebuildPerPoint(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = sizing_chunk(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (const auto& s : sizings) {
            auto perf = testsupport::rebuild_measure(evaluator.config(), s);
            benchmark::DoNotOptimize(perf);
        }
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaChunkRebuildPerPoint)
    ->Arg(16)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_OtaChunkPrototypeReuse(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = sizing_chunk(static_cast<std::size_t>(state.range(0)));
    if (!chunk_matches_rebuild(evaluator, sizings)) {
        state.SkipWithError("prototype-reuse results diverge from rebuild path");
        return;
    }
    for (auto _ : state) {
        auto perfs = evaluator.measure_chunk(sizings);
        benchmark::DoNotOptimize(perfs);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            state.range(0));
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaChunkPrototypeReuse)
    ->Arg(16)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Cost of one disarmed instrumentation site in absolute ns: an obs::Span
// built and destroyed with tracing off plus one arg() call - the pattern the
// engine runs per chunk and the flow per step. The bench-smoke CI job gates
// the median against a fixed ns ceiling; a throughput ratio against a whole
// ~26 ms chunk would bury the site under run-to-run noise.
void BM_ObsDisarmedSpan(benchmark::State& state) {
    obs::Tracer::set_enabled(false);
    double points = 0.0;
    for (auto _ : state) {
        obs::Span span("bench.site", "bench");
        span.arg("points", points);
        points += 1.0;
        benchmark::DoNotOptimize(span);
    }
}
BENCHMARK(BM_ObsDisarmedSpan);

// Cost of one per-item RNG stream: the engine derives base.child(i) for
// every Monte Carlo item, and a sample draws a handful of numbers from it.
// Each row has a Reference twin on testsupport::ReferenceRng (the same Rng
// over std::mt19937_64, which seeds and twists all 312 state words before
// its first output). The ...Gauss rows draw 64 standard normals, a
// process sample's worth. BM_RngChildBatchFirstDraw builds the streams the
// way the engine's chunk task does, eight at a time with Rng::children, and
// times one stream plus its first draw per iteration. The bench-smoke CI
// job gates the BM_RngChildFirstDraw, BM_RngChildBatchFirstDraw,
// BM_RngChild64Gauss and BM_RngChild64GaussSpan medians against fixed ns
// ceilings.
template <typename R>
void child_stream(benchmark::State& state, int gaussians) {
    if (Rng(42).child(7).gauss() != testsupport::ReferenceRng(42).child(7).gauss()) {
        state.SkipWithError("Rng diverges from the std::mt19937_64 reference");
        return;
    }
    const R base(42);
    std::uint64_t stream = 0;
    for (auto _ : state) {
        R child = base.child(stream++);
        if (gaussians == 0) {
            benchmark::DoNotOptimize(child.engine()());
        } else {
            double sum = 0.0;
            for (int i = 0; i < gaussians; ++i) sum += child.gauss();
            benchmark::DoNotOptimize(sum);
        }
    }
}

void BM_RngChildFirstDraw(benchmark::State& state) { child_stream<Rng>(state, 0); }
BENCHMARK(BM_RngChildFirstDraw);

void BM_RngChildFirstDrawReference(benchmark::State& state) {
    child_stream<testsupport::ReferenceRng>(state, 0);
}
BENCHMARK(BM_RngChildFirstDrawReference);

void BM_RngChildBatchFirstDraw(benchmark::State& state) {
    constexpr std::size_t kBatch = 8;
    const Rng base(42);
    std::vector<std::size_t> ids(kBatch);
    std::vector<Rng> batch;
    for (std::size_t k = 0; k < kBatch; ++k) ids[k] = 3 * k + 1;
    base.children(ids, batch);
    for (std::size_t k = 0; k < kBatch; ++k)
        if (batch[k].engine()() != base.child(ids[k]).engine()()) {
            state.SkipWithError("Rng::children diverges from Rng::child");
            return;
        }
    std::size_t next = kBatch;
    for (auto _ : state) {
        if (next == kBatch) {
            // A fresh vector per batch, as the engine's chunk task builds.
            for (std::size_t& id : ids) id += kBatch;
            batch = std::vector<Rng>();
            base.children(ids, batch);
            next = 0;
        }
        benchmark::DoNotOptimize(batch[next++].engine()());
    }
}
BENCHMARK(BM_RngChildBatchFirstDraw);

void BM_RngChild64Gauss(benchmark::State& state) { child_stream<Rng>(state, 64); }
BENCHMARK(BM_RngChild64Gauss);

// The same 64 normals from one batched Rng::gauss(span) call, as
// draw_mixture_u draws a sample's coordinates; checked against 64 scalar
// gauss() calls and the stream's next draw before timing.
void BM_RngChild64GaussSpan(benchmark::State& state) {
    constexpr std::size_t kNormals = 64;
    std::array<double, kNormals> z{};
    Rng scalar = Rng(42).child(7);
    Rng batched = scalar;
    batched.gauss(z);
    for (double v : z)
        if (v != scalar.gauss()) {
            state.SkipWithError("gauss(span) diverges from gauss()");
            return;
        }
    if (batched.engine()() != scalar.engine()()) {
        state.SkipWithError("gauss(span) leaves the stream elsewhere");
        return;
    }
    const Rng base(42);
    std::uint64_t stream = 0;
    for (auto _ : state) {
        Rng child = base.child(stream++);
        child.gauss(z);
        double sum = 0.0;
        for (double v : z) sum += v;
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_RngChild64GaussSpan);

void BM_RngChild64GaussReference(benchmark::State& state) {
    child_stream<testsupport::ReferenceRng>(state, 64);
}
BENCHMARK(BM_RngChild64GaussReference);

void BM_FilterChunkRebuildPerPoint(benchmark::State& state) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings =
        filter_sizing_chunk(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        for (const auto& s : sizings) {
            auto perf = testsupport::rebuild_measure(
                evaluator, s, circuits::OtaModelKind::behavioural);
            benchmark::DoNotOptimize(perf);
        }
    }
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterChunkRebuildPerPoint)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_FilterChunkPrototypeReuse(benchmark::State& state) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const auto sizings =
        filter_sizing_chunk(static_cast<std::size_t>(state.range(0)));
    if (!filter_chunk_matches_rebuild(evaluator, sizings,
                                      circuits::OtaModelKind::behavioural)) {
        state.SkipWithError("prototype-reuse results diverge from rebuild path");
        return;
    }
    for (auto _ : state) {
        auto perfs =
            evaluator.measure_chunk(sizings, circuits::OtaModelKind::behavioural);
        benchmark::DoNotOptimize(perfs);
    }
    state.counters["points_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FilterChunkPrototypeReuse)->Arg(30)->Unit(benchmark::kMillisecond);

// ------------------------------------------- overlapped Monte Carlo stages
//
// The flow's step 4 runs, per Pareto point, a nominal Bode measurement, a
// Monte Carlo stage and the variation statistics. The blocking engine
// barriers between points: the pool drains, stragglers of the last chunk
// run alone, the serial Bode/stats work keeps the workers idle, then the
// next point starts from scratch. The async path submits every point's
// Bode batch and MC run up front and retires them in order, so chunks from
// all points stream onto the pool while the retiring thread does the
// serial work. Results are bit-identical (pre-checked once below).

constexpr std::size_t kMcParetoPoints = 6;
constexpr std::uint64_t kBodeBenchTag = 0x626f6465; // flow's nominal tag

double consume_variation(const mc::McResult& result) {
    const auto gain_var = result.column_variation(0);
    const auto pm_var = result.column_variation(1);
    return gain_var.delta_3sigma_pct + pm_var.delta_3sigma_pct;
}

eval::ChunkKernelFn bode_kernel(const circuits::OtaEvaluator& evaluator) {
    return [&evaluator](const std::vector<const eval::EvalRequest*>& requests) {
        std::vector<circuits::OtaSizing> sizings;
        for (const eval::EvalRequest* r : requests)
            sizings.push_back(circuits::OtaSizing::from_vector(r->params));
        std::vector<std::vector<double>> rows;
        for (const auto& perf : evaluator.measure_chunk(sizings))
            rows.push_back(
                perf.valid
                    ? std::vector<double>{perf.gain_db, perf.pm_deg,
                                          perf.bode.f3db, perf.bode.gbw}
                    : std::vector<double>(
                          4, std::numeric_limits<double>::quiet_NaN()));
        return rows;
    };
}

struct PointOutcome {
    std::vector<double> bode;
    mc::McResult mc;
};

/// One full blocking pass over all points (the flow's step 4, point by
/// point): Bode batch, MC run, stats.
std::vector<PointOutcome>
run_points_blocking(eval::Engine& engine, const circuits::OtaEvaluator& evaluator,
                    const process::ProcessSampler& sampler,
                    const std::vector<circuits::OtaSizing>& sizings,
                    std::size_t samples, Rng& rng, double& sink) {
    const eval::ChunkKernelFn bode = bode_kernel(evaluator);
    std::vector<PointOutcome> out;
    out.reserve(sizings.size());
    for (const auto& s : sizings) {
        PointOutcome point;
        eval::EvalBatch bode_batch(kBodeBenchTag);
        bode_batch.add(s.to_vector());
        point.bode =
            engine.evaluate(std::move(bode_batch), bode).front().values;
        point.mc = core::run_ota_monte_carlo(engine, evaluator, s, sampler,
                                             samples, rng);
        sink += consume_variation(point.mc);
        out.push_back(std::move(point));
    }
    return out;
}

/// The same pass overlapped: all Bode batches and MC runs in flight before
/// the first retirement.
std::vector<PointOutcome>
run_points_async(eval::Engine& engine, const circuits::OtaEvaluator& evaluator,
                 const process::ProcessSampler& sampler,
                 const std::vector<circuits::OtaSizing>& sizings,
                 std::size_t samples, Rng& rng, double& sink) {
    const eval::ChunkKernelFn bode = bode_kernel(evaluator);
    std::vector<eval::Engine::Ticket> bode_tickets;
    std::vector<mc::McTicket> mc_tickets;
    bode_tickets.reserve(sizings.size());
    mc_tickets.reserve(sizings.size());
    for (const auto& s : sizings) {
        eval::EvalBatch bode_batch(kBodeBenchTag);
        bode_batch.add(s.to_vector());
        bode_tickets.push_back(engine.submit(std::move(bode_batch), bode));
        mc_tickets.push_back(core::submit_ota_monte_carlo(
            engine, evaluator, s, sampler, samples, rng));
    }
    std::vector<PointOutcome> out;
    out.reserve(sizings.size());
    for (std::size_t p = 0; p < sizings.size(); ++p) {
        PointOutcome point;
        point.bode = engine.wait(std::move(bode_tickets[p])).front().values;
        point.mc = mc::wait_monte_carlo(engine, std::move(mc_tickets[p]));
        sink += consume_variation(point.mc);
        out.push_back(std::move(point));
    }
    return out;
}

bool rows_bits_equal(std::span<const double> a, std::span<const double> b) {
    if (a.size() != b.size()) return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Bit-identity cross-check, run once per process: the overlapped pass
/// must reproduce the blocking pass result-for-result (re-running it per
/// benchmark repetition would only add untimed wall-clock to CI).
bool async_mc_matches_blocking_once(std::size_t samples) {
    static const std::size_t checked_samples = samples;
    static const bool matches = [] {
        const circuits::OtaEvaluator evaluator;
        const process::ProcessSampler sampler(evaluator.config().card,
                                              process::VariationSpec::c35());
        const auto sizings = sizing_chunk(kMcParetoPoints);
        eval::EngineConfig cfg;
        cfg.cache_capacity = 0;
        eval::Engine blocking(cfg), async(cfg);
        Rng rb(2008), ra(2008);
        double sink_b = 0.0, sink_a = 0.0;
        const auto b = run_points_blocking(blocking, evaluator, sampler, sizings,
                                           checked_samples, rb, sink_b);
        const auto a = run_points_async(async, evaluator, sampler, sizings,
                                        checked_samples, ra, sink_a);
        for (std::size_t p = 0; p < sizings.size(); ++p) {
            if (!rows_bits_equal(a[p].bode, b[p].bode)) return false;
            if (a[p].mc.rows.arity() != b[p].mc.rows.arity() ||
                !rows_bits_equal(a[p].mc.rows.values(), b[p].mc.rows.values()))
                return false;
        }
        return true;
    }();
    return samples == checked_samples && matches;
}

void BM_OtaMcParetoPointsBlocking(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto sizings = sizing_chunk(kMcParetoPoints);
    const auto samples = static_cast<std::size_t>(state.range(0));
    eval::EngineConfig cfg;
    cfg.cache_capacity = 0;
    for (auto _ : state) {
        eval::Engine engine(cfg);
        Rng rng(2008);
        double sink = 0.0;
        auto outcomes = run_points_blocking(engine, evaluator, sampler, sizings,
                                            samples, rng, sink);
        benchmark::DoNotOptimize(outcomes);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kMcParetoPoints) *
                            state.range(0));
    state.counters["samples_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kMcParetoPoints) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaMcParetoPointsBlocking)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_OtaMcParetoPointsAsync(benchmark::State& state) {
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto sizings = sizing_chunk(kMcParetoPoints);
    const auto samples = static_cast<std::size_t>(state.range(0));
    if (!async_mc_matches_blocking_once(samples)) {
        state.SkipWithError("overlapped MC results diverge from blocking engine");
        return;
    }
    eval::EngineConfig cfg;
    cfg.cache_capacity = 0;
    for (auto _ : state) {
        eval::Engine engine(cfg);
        Rng rng(2008);
        double sink = 0.0;
        auto outcomes = run_points_async(engine, evaluator, sampler, sizings,
                                         samples, rng, sink);
        benchmark::DoNotOptimize(outcomes);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(kMcParetoPoints) *
                            state.range(0));
    state.counters["samples_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kMcParetoPoints) *
            static_cast<double>(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OtaMcParetoPointsAsync)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

} // namespace

BENCHMARK_MAIN();
