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

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "circuits/ota.hpp"
#include "core/flow.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "mc/yield.hpp"
#include "process/sampler.hpp"
#include "util/rng.hpp"
#include "yield/estimator.hpp"
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
    void add(const std::vector<double>& v) {
        add(static_cast<std::uint64_t>(v.size()));
        for (double x : v) add(x);
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
        const process::ProcessSampler sampler(ota.card, cfg.variation);
        Rng rng(11);
        const mc::McResult rows = core::run_ota_monte_carlo(
            engine, evaluator, r.front.front().sizing, sampler, 32, rng);
        mc_rows.add(u64(rows.rows.size()));
        for (const auto& row : rows.rows) mc_rows.add(row);
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

// ------------------------------------------------------------ matrix cells

struct Cell {
    const char* scenario;
    const char* estimator;
    std::uint64_t digest;
    std::size_t total_samples; ///< pilot + main-stage samples (readable)
};

// Certificates of the cheap bench_yield_matrix cells at the matrix seed
// (Rng(73), default scenario options, cache-less engine).
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

} // namespace
