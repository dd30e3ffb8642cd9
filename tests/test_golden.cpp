// Golden digests: FNV-1a hashes over the bit patterns of a reduced Fig. 3
// flow and of one yield certificate per cheap estimator-matrix cell, at
// fixed seeds. Every other bit-identity test compares two paths inside one
// build (async vs blocking, chunk vs reference, probes on vs off), so a
// change that moves both paths together goes unnoticed there; these digests
// pin the numbers themselves.
//
// An intended numeric change updates the affected digest in the same change,
// with a one-line reason. Run with YPM_GOLDEN_PRINT=1 to print the current
// values in the table format used below.

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/filter.hpp"
#include "circuits/ota.hpp"
#include "core/flow.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "mc/yield.hpp"
#include "moo/nsga2.hpp"
#include "moo/random_search.hpp"
#include "moo/test_problems.hpp"
#include "moo/wbga.hpp"
#include "process/process_card.hpp"
#include "process/sampler.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/devices/capacitor.hpp"
#include "spice/devices/inductor.hpp"
#include "spice/devices/mosfet.hpp"
#include "spice/devices/resistor.hpp"
#include "spice/devices/sources.hpp"
#include "util/rng.hpp"
#include "va/behav_ota_device.hpp"
#include "yield/estimator.hpp"
#include "yield/probe.hpp"
#include "yield/scenarios.hpp"
#include "yield/sequential.hpp"

namespace {

using namespace ypm;

/// 64-bit FNV-1a over little-endian byte images, so the digest of a value
/// does not depend on the host byte order.
class Fnv1a {
public:
    void byte(unsigned char b) {
        hash_ ^= b;
        hash_ *= 0x100000001b3ull;
    }
    void add(std::uint64_t v) {
        for (int k = 0; k < 8; ++k) byte(static_cast<unsigned char>(v >> (8 * k)));
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
    void add(std::string_view s) {
        add(static_cast<std::uint64_t>(s.size()));
        for (char c : s) byte(static_cast<unsigned char>(c));
    }
    void add(std::span<const double> v) {
        add(static_cast<std::uint64_t>(v.size()));
        for (double x : v) add(x);
    }
    void add(std::complex<double> v) {
        add(v.real());
        add(v.imag());
    }
    void add(const std::vector<std::complex<double>>& v) {
        add(static_cast<std::uint64_t>(v.size()));
        for (std::complex<double> x : v) add(x);
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

bool print_mode() {
    const char* v = std::getenv("YPM_GOLDEN_PRINT"); // NOLINT(concurrency-mt-unsafe)
    return v != nullptr && *v != '\0' && *v != '0';
}

void expect_digest(const std::string& name, std::uint64_t actual,
                   std::uint64_t expected) {
    if (print_mode())
        std::printf("    {\"%s\", 0x%016llxull},\n", name.c_str(),
                    static_cast<unsigned long long>(actual));
    EXPECT_EQ(actual, expected) << name << " digest moved";
}

void expect_value(const std::string& name, double actual, double expected) {
    if (print_mode()) std::printf("    %s = %.17g\n", name.c_str(), actual);
    EXPECT_EQ(actual, expected) << name;
}

std::uint64_t u64(std::size_t v) { return static_cast<std::uint64_t>(v); }

void add_estimate(Fnv1a& d, const yield::WeightedYieldEstimate& e) {
    d.add(u64(e.samples));
    d.add(u64(e.passes));
    d.add(e.yield);
    d.add(e.ci_low);
    d.add(e.ci_high);
    d.add(e.ess);
    d.add(e.max_weight_share);
    d.add(e.weighted);
    d.add(e.fail_weight_sum);
    d.add(e.fail_weight_sq_sum);
    d.add(e.fail_weight_max);
}

void add_certificate(Fnv1a& d, const yield::SequentialYieldResult& r) {
    add_estimate(d, r.estimate);
    add_estimate(d, r.pilot);
    d.add(u64(r.stage_estimates.size()));
    for (const auto& s : r.stage_estimates) add_estimate(d, s);
    d.add(u64(r.proposal.components.size()));
    for (const auto& c : r.proposal.components) {
        d.add(c.mu);
        d.add(c.scale);
        d.add(c.sigma);
        d.add(c.weight);
    }
    d.add(r.shift.mu);
    d.add(u64(r.refinements));
    d.add(u64(r.shift_pilot_failures));
    d.add(u64(r.samples_used));
    d.add(u64(r.pilot_samples));
    d.add(r.reached_target);
}

void add_file(Fnv1a& d, const std::string& path) {
    ASSERT_FALSE(path.empty());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    d.add(std::filesystem::path(path).filename().string());
    d.add(bytes);
}

// ------------------------------------------------------------ reduced flow

TEST(Golden, ReducedFlow) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "ypm_golden_flow";
    fs::remove_all(dir);

    const circuits::OtaConfig ota;
    core::FlowConfig cfg;
    cfg.ga.population = 20;
    cfg.ga.generations = 5;
    cfg.mc_samples = 32;
    cfg.max_mc_points = 8;
    cfg.seed = 1;
    cfg.artifact_dir = dir.string();
    // Specs cut through the middle of this front, so the certificates
    // exercise the pilot fit and the weighted estimator, not just clean
    // sweeps.
    cfg.yield_specs = {mc::Spec::at_least("gain_db", 60.0),
                       mc::Spec::at_least("pm_deg", 86.5)};
    cfg.yield_sequential.pilot_samples = 24;
    cfg.yield_sequential.chunk_samples = 24;
    cfg.yield_sequential.max_samples = 48;
    cfg.yield_sequential.min_samples = 24;
    const core::FlowResult r = core::YieldFlow(ota, cfg).run();
    ASSERT_GE(r.front.size(), 3u);
    ASSERT_EQ(r.yields.size(), r.front.size());

    // Archive front: the non-dominated designs the optimiser found.
    Fnv1a archive;
    archive.add(u64(r.optimisation.archive.size()));
    archive.add(u64(r.pareto_indices.size()));
    for (std::size_t idx : r.pareto_indices) {
        const auto& e = r.optimisation.archive[idx];
        archive.add(u64(idx));
        archive.add(e.params);
        archive.add(e.objectives);
    }

    // Step-4 front data: the nominal Bode re-measure and the Monte Carlo
    // variation statistics of every surviving point.
    Fnv1a front;
    front.add(u64(r.front.size()));
    for (const auto& p : r.front) {
        front.add(u64(p.design_id));
        front.add(p.sizing.to_vector());
        for (double v : {p.gain_db, p.pm_deg, p.dgain_pct, p.dpm_pct,
                         p.dgain_halfrange_pct, p.dpm_halfrange_pct, p.f3db,
                         p.gbw})
            front.add(v);
        front.add(u64(p.mc_failures));
    }

    // Raw Monte Carlo rows of the first front point, on a fresh engine.
    Fnv1a mc_rows;
    {
        eval::Engine engine;
        const circuits::OtaEvaluator evaluator(ota);
        const process::ProcessSampler sampler(ota.card,
                                              process::VariationSpec::c35());
        Rng rng(11);
        const mc::McResult rows = core::run_ota_monte_carlo(
            engine, evaluator, r.front.front().sizing, sampler, 32, rng);
        mc_rows.add(u64(rows.size()));
        for (std::size_t i = 0; i < rows.size(); ++i) mc_rows.add(rows.row(i));
    }

    Fnv1a certificates;
    for (std::size_t i = 0; i < r.yields.size(); ++i) {
        const auto& y = r.yields[i];
        certificates.add(u64(y.design_id));
        add_certificate(certificates, y.result);
        if (print_mode())
            std::printf("    point %zu: gain %.3f dB, pm %.3f deg, yield %.6f "
                        "(%zu samples)\n",
                        y.design_id, r.front[i].gain_db, r.front[i].pm_deg,
                        y.result.estimate.yield,
                        y.result.samples_used + y.result.pilot_samples);
    }

    Fnv1a tables;
    const core::ModelArtifacts& art = r.artifacts;
    add_file(tables, art.gain_delta_tbl);
    add_file(tables, art.pm_delta_tbl);
    for (const auto& p : art.param_tbls) add_file(tables, p);
    add_file(tables, art.f3db_tbl);
    add_file(tables, art.front_csv);
    add_file(tables, art.yield_csv);
    add_file(tables, art.yield_tbl);
    add_file(tables, art.va_module);

    expect_digest("flow.archive_front", archive.value(), 0xc3fb14819d2b1ea1ull);
    expect_digest("flow.front", front.value(), 0xc9d425e839ab7ce8ull);
    expect_digest("flow.mc_rows", mc_rows.value(), 0xa6c2a13a2a1cbd66ull);
    expect_digest("flow.certificates", certificates.value(),
                  0x517dbd123817a168ull);
    expect_digest("flow.tables", tables.value(), 0x0be33ba0c23310f2ull);

    expect_value("flow.front_points", static_cast<double>(r.front.size()), 8.0);
    expect_value("flow.engine_requests",
                 static_cast<double>(r.timings.engine.requests), 940.0);
    expect_value("flow.first_gain_db", r.front.front().gain_db,
                 52.097297451304385);
    expect_value("flow.first_f3db", r.front.front().f3db, 655.96622534111339);
    expect_value("flow.first_yield", r.yields.front().result.estimate.yield,
                 0.21219108651418928);

    fs::remove_all(dir);
}

TEST(Golden, ReducedFlowWithProbes) {
    // The same reduced flow with mixture_ce probes in the GA loop: the
    // probes reshape the archive through the fitness, and their warm start
    // carries a proposal from the first probed generation to the next.
    const circuits::OtaConfig ota;
    core::FlowConfig cfg;
    cfg.ga.population = 20;
    cfg.ga.generations = 5;
    cfg.mc_samples = 32;
    cfg.max_mc_points = 8;
    cfg.seed = 1;
    cfg.yield_specs = {mc::Spec::at_least("gain_db", 60.0),
                       mc::Spec::at_least("pm_deg", 86.5)};
    cfg.yield_sequential.pilot_samples = 24;
    cfg.yield_sequential.chunk_samples = 24;
    cfg.yield_sequential.max_samples = 48;
    cfg.yield_sequential.min_samples = 24;
    cfg.yield_probe.budget = 96;
    cfg.yield_probe.estimator = "mixture_ce";
    cfg.ga.robustness.activation_generation = 2;
    cfg.ga.robustness.max_points = 6;
    const core::FlowResult r = core::YieldFlow(ota, cfg).run();
    ASSERT_FALSE(r.yields.empty());

    Fnv1a archive;
    archive.add(u64(r.optimisation.archive.size()));
    archive.add(u64(r.pareto_indices.size()));
    for (std::size_t idx : r.pareto_indices) {
        const auto& e = r.optimisation.archive[idx];
        archive.add(u64(idx));
        archive.add(e.params);
        archive.add(e.objectives);
        archive.add(e.robustness);
    }

    Fnv1a certificates;
    for (std::size_t i = 0; i < r.yields.size(); ++i) {
        const auto& y = r.yields[i];
        certificates.add(u64(y.design_id));
        certificates.add(r.front[i].probe_yield);
        add_certificate(certificates, y.result);
    }

    expect_digest("probe_flow.archive_front", archive.value(),
                  0x57216ee26065c865ull);
    expect_digest("probe_flow.certificates", certificates.value(),
                  0x195c212eb2ea3b3bull);
    expect_value("probe_flow.probe_points",
                 static_cast<double>(r.timings.probe_points), 18.0);
    expect_value("probe_flow.probe_samples",
                 static_cast<double>(r.timings.probe_samples), 1656.0);
}

// ---------------------------------------------------- paper-scale flow

// One flow at the paper's Table 5 knobs (WBGA 100 x 100, 200 Monte Carlo
// samples per front point), as ypmbench's paper_flow runs it. About 2 s, so
// it is its own ctest entry (label paper_scale, skipped by
// `ctest -LE paper_scale`).
TEST(GoldenPaperScale, Table5Flow) {
    const circuits::OtaConfig ota;
    core::FlowConfig cfg;
    cfg.ga.population = 100;
    cfg.ga.generations = 100;
    cfg.mc_samples = 200;
    cfg.max_mc_points = 200;
    cfg.seed = 5;
    const core::FlowResult r = core::YieldFlow(ota, cfg).run();
    ASSERT_FALSE(r.front.empty());

    Fnv1a archive;
    archive.add(u64(r.optimisation.archive.size()));
    archive.add(u64(r.pareto_indices.size()));
    for (std::size_t idx : r.pareto_indices) {
        const auto& e = r.optimisation.archive[idx];
        archive.add(u64(idx));
        archive.add(e.params);
        archive.add(e.objectives);
    }

    Fnv1a front;
    front.add(u64(r.front.size()));
    for (const auto& p : r.front) {
        front.add(u64(p.design_id));
        front.add(p.sizing.to_vector());
        for (double v : {p.gain_db, p.pm_deg, p.dgain_pct, p.dpm_pct,
                         p.dgain_halfrange_pct, p.dpm_halfrange_pct, p.f3db,
                         p.gbw})
            front.add(v);
        front.add(u64(p.mc_failures));
    }

    expect_digest("table5.archive_front", archive.value(),
                  0xee430d93361e4e80ull);
    expect_digest("table5.front", front.value(), 0x0f0d9ba66b7a4194ull);
    expect_value("table5.front_points", static_cast<double>(r.front.size()),
                 61.0);
    expect_value("table5.engine_requests",
                 static_cast<double>(r.timings.engine.requests), 22462.0);
    expect_value("table5.engine_failures",
                 static_cast<double>(r.timings.engine.failures), 0.0);
}

// -------------------------------------------------------------- optimisers

void add_individual(Fnv1a& d, const moo::EvaluatedIndividual& e) {
    d.add(e.params);
    d.add(e.objectives);
    d.add(u64(e.generation));
}

TEST(Golden, Optimisers) {
    // The three optimisers of the A2 ablation on the analytic ZDT1, so the
    // GA operators, the eq. (5) fitness and the weight genes are pinned
    // apart from the OTA flow.
    const moo::ZdtProblem zdt(1, 8);

    moo::WbgaConfig wcfg;
    wcfg.population = 40;
    wcfg.generations = 25;
    Rng wrng(7);
    const moo::WbgaResult w = moo::Wbga(zdt, wcfg).run(wrng);
    Fnv1a wbga;
    wbga.add(u64(w.archive.size()));
    for (const auto& e : w.archive) {
        add_individual(wbga, e);
        wbga.add(e.weights);
        wbga.add(e.fitness);
    }
    wbga.add(w.best_fitness_history);

    moo::Nsga2Config ncfg;
    ncfg.population = 40;
    ncfg.generations = 25;
    eval::Engine engine;
    Rng nrng(8);
    const moo::Nsga2Result n = moo::Nsga2(zdt, ncfg).run(engine, nrng);
    Fnv1a nsga2;
    nsga2.add(u64(n.archive.size()));
    for (const auto& e : n.archive) add_individual(nsga2, e);
    nsga2.add(u64(n.final_population.size()));
    for (const auto& e : n.final_population) add_individual(nsga2, e);

    Rng rrng(9);
    const moo::RandomSearchResult r = moo::random_search(engine, zdt, 500, rrng);
    Fnv1a random;
    random.add(u64(r.archive.size()));
    for (const auto& e : r.archive) add_individual(random, e);

    expect_digest("optimisers.wbga", wbga.value(), 0xf7a864b7e354b5a3ull);
    expect_digest("optimisers.nsga2", nsga2.value(), 0x26ce77e0244eb7c7ull);
    expect_digest("optimisers.random_search", random.value(),
                  0x9967b4f3c13bb005ull);
}

// ------------------------------------------------------ multi-point yield

TEST(Golden, MultiPointYieldWithRefits) {
    // Three synthetic points driven together on one engine, with CE refits
    // and early stop, two chunks in flight per point. Only folded outputs
    // are digested: the drained overshoot depends on scheduling by design.
    std::vector<yield::YieldPoint> points(3);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].specs = {mc::Spec::at_most("v", 3.0)};
        points[i].factory = yield::synthetic_factory(0.1 * double(i), 1.0);
        points[i].dimension = 1;
    }
    yield::SequentialConfig seq;
    seq.pilot_samples = 256;
    seq.pilot_scale = 2.5;
    seq.chunk_samples = 64;
    seq.max_samples = 4096;
    seq.min_samples = 256;
    seq.target_half_width = 5e-4;
    seq.inflight = 2;
    seq.refine_after_chunks = 2;
    seq.max_refits = 2;
    seq.refit_min_failures = 4;

    eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0;
    eval::Engine engine(engine_config);
    const auto results =
        yield::run_yield_points(engine, seq, points, Rng(2029));
    ASSERT_EQ(results.size(), points.size());

    Fnv1a d;
    for (const auto& r : results) {
        add_certificate(d, r);
        d.add(u64(r.trajectory.size()));
        for (const auto& [samples, half_width] : r.trajectory) {
            d.add(u64(samples));
            d.add(half_width);
        }
    }
    expect_value("multi_point.samples_0",
                 static_cast<double>(results[0].samples_used), 256.0);
    expect_value("multi_point.samples_1",
                 static_cast<double>(results[1].samples_used), 320.0);
    expect_value("multi_point.samples_2",
                 static_cast<double>(results[2].samples_used), 576.0);
    expect_value("multi_point.refinements_2",
                 static_cast<double>(results[2].refinements), 2.0);
    expect_digest("multi_point.certificates", d.value(), 0xf99584ab90f29c42ull);
}

// ------------------------------------------------------------- yield probe

void add_probe_result(Fnv1a& d, const yield::ProbeResult& r) {
    add_estimate(d, r.estimate);
    d.add(u64(r.samples_used));
    d.add(r.warm_started);
    d.add(r.reached_target);
}

TEST(Golden, ProbeColdThenWarm) {
    // A single_shift probe: the cold call fits pilots and hands its
    // proposal on, the warm call skips the pilots and runs from it.
    const yield::Scenario sc = yield::make_scenario("synthetic_bimodal");
    yield::ProbeConfig config;
    config.estimator = "single_shift";
    config.budget = 768;
    config.target_half_width = 0.08;
    yield::YieldProbe probe(
        config, sc.config, sc.specs,
        [&](const std::vector<double>&) { return sc.factory; }, sc.dimension);
    const std::vector<std::vector<double>> points = {{0.0}, {1.0}, {2.0}};

    eval::EngineConfig engine_config;
    engine_config.cache_capacity = 0;
    eval::Engine engine(engine_config);
    const auto cold = probe.probe(engine, points, Rng(81).child(1), 0);
    const process::ProposalMixture warm_proposal = probe.warm_proposal();
    const auto warm = probe.probe(engine, points, Rng(81).child(2), 1);
    ASSERT_FALSE(warm_proposal.components.empty());

    Fnv1a results;
    for (const auto& r : cold) add_probe_result(results, r);
    for (const auto& r : warm) add_probe_result(results, r);
    Fnv1a proposal;
    proposal.add(u64(warm_proposal.components.size()));
    for (const auto& c : warm_proposal.components) {
        proposal.add(c.mu);
        proposal.add(c.scale);
        proposal.add(c.sigma);
        proposal.add(c.weight);
    }
    expect_digest("probe.results", results.value(), 0x948e07f660a5327eull);
    expect_digest("probe.warm_proposal", proposal.value(),
                  0xd2bf8a266fd46976ull);
    expect_value("probe.total_samples",
                 static_cast<double>(probe.total_samples()), 2304.0);
}

// ------------------------------------------------------------ matrix cells

struct Cell {
    const char* scenario;
    const char* estimator;
    std::uint64_t digest;
    std::size_t total_samples; ///< pilot + main-stage samples (readable)
};

// Certificates of the bench_yield_matrix cells that run in well under a
// second each, at the matrix seed (Rng(73), default scenario options,
// cache-less engine).
const Cell kCells[] = {
    {"synthetic_bimodal", "plain_mc", 0x56f5d78fa1295bfbull, 5376},
    {"synthetic_bimodal", "single_shift", 0xc49f1d261fa8b3b3ull, 512},
    {"synthetic_bimodal", "mixture_ce", 0xff3bc9c544ac48aeull, 512},
    {"synthetic_bimodal", "mixture_ce_scale", 0xff3bc9c544ac48aeull, 512},
    {"highdim_synthetic", "plain_mc", 0x049f29031f1b4563ull, 3456},
    {"highdim_synthetic", "single_shift", 0x9d5f2134fb064729ull, 1024},
    {"highdim_synthetic", "mixture_ce", 0x9c0085fa6afdf240ull, 896},
    {"highdim_synthetic", "mixture_ce_scale", 0xfd8d5f4b81842a54ull, 896},
    {"clean_sweep", "plain_mc", 0xe7abe1f8eab19706ull, 640},
    {"clean_sweep", "single_shift", 0xdc9cdb6fbaafad56ull, 896},
    {"clean_sweep", "mixture_ce", 0xdc9cdb6fbaafad56ull, 896},
    {"clean_sweep", "mixture_ce_scale", 0xdc9cdb6fbaafad56ull, 896},
    {"rare_ota", "single_shift", 0x22acfbc20bae0cbdull, 512},
    // The OTA mixture cells push thousands of AC sweeps through
    // importance-sampled extreme corners, where the MNA zero pattern and
    // the LU's pivots vary most.
    {"rare_ota", "mixture_ce", 0x01e79f3a93812485ull, 640},
    {"rare_ota", "mixture_ce_scale", 0x2d46bc329942d85dull, 640},
    {"bimodal_ota", "mixture_ce", 0x83814809f62d41f6ull, 1408},
    {"bimodal_ota", "mixture_ce_scale", 0x908647833bd009f3ull, 1280},
};

TEST(Golden, MatrixCells) {
    std::string built;
    yield::Scenario sc;
    for (const Cell& cell : kCells) {
        if (built != cell.scenario) {
            sc = yield::make_scenario(cell.scenario);
            built = cell.scenario;
        }
        eval::EngineConfig engine_config;
        engine_config.cache_capacity = 0;
        eval::Engine engine(engine_config);
        const auto r = yield::EstimatorRegistry::instance()
                           .create(cell.estimator)
                           ->estimate(engine, sc.config, sc.specs, sc.factory,
                                      sc.dimension, Rng(73));
        Fnv1a d;
        add_certificate(d, r);
        const std::size_t total = r.samples_used + r.pilot_samples;
        if (print_mode())
            std::printf("    {\"%s\", \"%s\", 0x%016llxull, %zu},\n",
                        cell.scenario, cell.estimator,
                        static_cast<unsigned long long>(d.value()), total);
        const std::string name =
            std::string(cell.scenario) + "/" + cell.estimator;
        EXPECT_EQ(d.value(), cell.digest) << name << " digest moved";
        EXPECT_EQ(total, cell.total_samples) << name;
    }
}

// ------------------------------------------------------------ AC consumers

void add_filter_perf(Fnv1a& d, const circuits::FilterPerformance& p) {
    d.add(p.valid);
    d.add(p.passband_gain_db);
    d.add(p.fc);
    d.add(p.stopband_atten_db);
    d.add(p.worst_passband_dev_db);
    d.add(p.failure);
}

void add_yield(Fnv1a& d, const mc::YieldEstimate& y) {
    d.add(u64(y.samples));
    d.add(u64(y.passes));
    d.add(y.yield);
    d.add(y.ci_low);
    d.add(y.ci_high);
}

template <typename R>
void add_response(Fnv1a& d, const R& r) {
    d.add(r.freqs);
    d.add(r.h);
}

const circuits::OtaModelKind kKinds[] = {circuits::OtaModelKind::behavioural,
                                         circuits::OtaModelKind::transistor};

TEST(Golden, FilterMeasure) {
    const circuits::FilterEvaluator ev{circuits::FilterConfig{},
                                       circuits::FilterSpecMask{}};
    const circuits::FilterSizing sizings[] = {{47e-12, 22e-12, 10e-12},
                                              {48e-12, 24e-12, 8e-12},
                                              {8e-12, 4e-12, 10e-12},
                                              {60e-12, 2e-12, 33e-12}};
    Fnv1a d;
    for (auto kind : kKinds)
        for (const auto& s : sizings) add_filter_perf(d, ev.measure(s, kind));
    expect_digest("filter.measure", d.value(), 0x6cf584da5a50ff55ull);
}

TEST(Golden, FilterYield) {
    const circuits::FilterEvaluator ev{circuits::FilterConfig{},
                                       circuits::FilterSpecMask{}};
    // fc sits just under the mask's lower edge, so both yields are
    // fractional and every sample's verdict counts.
    const circuits::FilterSizing sizing{48.96e-12, 24.48e-12, 8e-12};

    Fnv1a behavioural;
    Rng rng_b(5);
    const auto yb = circuits::filter_yield_behavioural(
        ev, sizing, circuits::FilterVariation{}, 60, rng_b);
    add_yield(behavioural, yb);

    Fnv1a transistor;
    const process::ProcessSampler sampler(ev.config().ota_config.card,
                                          process::VariationSpec::c35());
    Rng rng_t(7);
    const auto yt =
        circuits::filter_yield_transistor(ev, sizing, sampler, 16, rng_t);
    add_yield(transistor, yt);

    expect_digest("filter.yield_behavioural", behavioural.value(),
                  0xe4f950a02ede5b68ull);
    expect_digest("filter.yield_transistor", transistor.value(),
                  0x453bc35b5a5b1208ull);
    expect_value("filter.yield_behavioural", yb.yield, 0.23333333333333334);
    expect_value("filter.yield_transistor", yt.yield, 0.3125);
}

TEST(Golden, AcResponses) {
    const circuits::OtaEvaluator ota;
    const circuits::OtaSizing sizing;
    Fnv1a ota_nominal;
    add_response(ota_nominal, ota.ac_response(sizing));

    const process::ProcessSampler sampler(ota.config().card,
                                          process::VariationSpec::c35());
    Rng rng(17);
    const spice::Circuit tb =
        circuits::build_ota_testbench(sizing, ota.config());
    const process::Realization real = sampler.sample(rng, tb.mos_geometries());
    Fnv1a ota_sampled;
    add_response(ota_sampled, ota.ac_response(sizing, &real));

    Fnv1a regions;
    for (const auto& [name, region] : ota.op_regions(sizing)) {
        regions.add(name);
        regions.add(u64(static_cast<std::size_t>(region)));
    }

    const circuits::FilterEvaluator filter{circuits::FilterConfig{},
                                           circuits::FilterSpecMask{}};
    Fnv1a filter_resp;
    for (auto kind : kKinds)
        add_response(filter_resp,
                     filter.ac_response(circuits::FilterSizing{}, kind));

    expect_digest("ota.ac_response_nominal", ota_nominal.value(),
                  0x43be131784a417a3ull);
    expect_digest("ota.ac_response_sampled", ota_sampled.value(),
                  0xcb0720ef95162b9aull);
    expect_digest("ota.op_regions", regions.value(), 0x1ea1969a0c34696aull);
    expect_digest("filter.ac_response", filter_resp.value(),
                  0x581f3e5d00617af0ull);
}

TEST(Golden, RunAcEveryDeviceKind) {
    using namespace spice;
    Circuit c;
    const NodeId vin = c.node("vin");
    const NodeId n1 = c.node("n1");
    const NodeId n2 = c.node("n2");
    const NodeId o1 = c.node("o1");
    const NodeId n5 = c.node("n5");
    const NodeId n6 = c.node("n6");
    const NodeId vdd = c.node("vdd");
    const NodeId ng = c.node("ng");
    const NodeId nd = c.node("nd");

    c.add<VoltageSource>("v1", vin, ground, 1.0, 1.0, 30.0);
    c.add<Resistor>("r1", vin, n1, 1e3);
    c.add<Capacitor>("c1", n1, ground, 1e-9);
    c.add<Inductor>("l1", n1, n2, 1e-3);
    c.add<Resistor>("r2", n2, ground, 2e3);
    // The macromodel sits mid-list: its pole stamp is interleaved with
    // frequency-affine ones.
    c.add<va::BehaviouralOta>("ota", n2, o1, o1,
                              va::BehaviouralOtaSpec{60.0, 1e4, 1e3});
    c.add<Resistor>("r4", n5, ground, 1e3);
    c.add<CurrentSource>("i1", ground, n6, 1e-4, 0.5, 45.0);
    c.add<Resistor>("r5", n6, ground, 1e3);
    c.add<Capacitor>("c2", n6, o1, 2e-9);
    c.add<VoltageSource>("vdd", vdd, ground, 3.3);
    c.add<VoltageSource>("vg", ng, ground, 1.0, 0.1);
    c.add<Resistor>("rd", vdd, nd, 10e3);
    c.add<Mosfet>("m1", nd, ng, ground, ground, Mosfet::Type::nmos,
                  process::ProcessCard::c35().nmos, 10e-6, 1e-6);
    c.add<Capacitor>("cd", nd, n5, 1e-12);

    const DcResult op = DcSolver().solve(c);
    ASSERT_TRUE(op.converged);
    const AcResult ac = run_ac(c, op.solution, log_sweep(10.0, 1e8, 5));
    Fnv1a d;
    d.add(ac.freqs);
    d.add(u64(ac.points.size()));
    for (const AcSolution& p : ac.points) {
        d.add(u64(p.size()));
        for (std::size_t i = 1; i <= c.node_count(); ++i)
            d.add(p.voltage(static_cast<NodeId>(i)));
        for (std::size_t b = 0; b < c.branch_count(); ++b)
            d.add(p.branch_current(b));
    }
    expect_digest("spice.run_ac_every_device", d.value(),
                  0x1dc664d8ad2d0345ull);
}

} // namespace
