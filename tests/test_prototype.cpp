// Unit tests for the prototype-reuse measurement kernels: spice::
// CircuitPrototype and every evaluator measurement (scalar one-point leases
// and chunks alike) must be bit-identical to the per-point rebuild oracle
// in tests/support - for OTA and filter, nominal and under process
// realisations - safe to re-bind repeatedly, and thread-count invariant
// when driven through the evaluation engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "circuits/filter_problem.hpp"
#include "circuits/ota_problem.hpp"
#include "core/ota_mc.hpp"
#include "eval/engine.hpp"
#include "moo/population_eval.hpp"
#include "process/sampler.hpp"
#include "spice/analysis/ac.hpp"
#include "spice/analysis/ac_sweep.hpp"
#include "spice/analysis/dc.hpp"
#include "spice/measure.hpp"
#include "spice/prototype.hpp"
#include "support/kernels.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

namespace {

using namespace ypm;
using testsupport::rebuild_measure;

bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Bitwise comparison that treats NaN == NaN (failure sentinels).
void expect_rows_identical(std::span<const double> a,
                           std::span<const double> b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::isnan(a[i]) && std::isnan(b[i])) continue;
        EXPECT_TRUE(bits_equal(a[i], b[i]))
            << "column " << i << ": " << a[i] << " vs " << b[i];
    }
}

/// The rebuild oracle sweeps every frequency; the prototype stops past the
/// crossings (spice::bode_sweep_complete). Every reported field must still
/// match bit for bit, on invalid points too.
void expect_perf_identical(const circuits::OtaPerformance& reference,
                           const circuits::OtaPerformance& chunk) {
    EXPECT_EQ(reference.valid, chunk.valid);
    EXPECT_EQ(reference.failure, chunk.failure);
    EXPECT_TRUE(bits_equal(reference.gain_db, chunk.gain_db));
    EXPECT_TRUE(bits_equal(reference.pm_deg, chunk.pm_deg));
    EXPECT_TRUE(bits_equal(reference.bode.dc_gain_db, chunk.bode.dc_gain_db));
    EXPECT_TRUE(bits_equal(reference.bode.unity_freq, chunk.bode.unity_freq));
    EXPECT_TRUE(bits_equal(reference.bode.phase_margin_deg,
                           chunk.bode.phase_margin_deg));
    EXPECT_TRUE(bits_equal(reference.bode.f3db, chunk.bode.f3db));
    EXPECT_TRUE(bits_equal(reference.bode.gbw, chunk.bode.gbw));
}

std::vector<circuits::OtaSizing> random_sizings(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    const auto specs = circuits::OtaSizing::parameter_specs();
    std::vector<circuits::OtaSizing> out;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> v;
        for (const auto& s : specs) v.push_back(rng.uniform(s.lo, s.hi));
        out.push_back(circuits::OtaSizing::from_vector(v));
    }
    return out;
}

// -------------------------------------------------------- sweep primitives

TEST(AcSweep, TransferBitIdenticalToRunAc) {
    const circuits::OtaConfig cfg;
    const circuits::OtaSizing sizing;
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, cfg);
    const spice::DcSolver solver;
    const auto op = solver.solve(ckt);
    ASSERT_TRUE(op.converged);
    const auto freqs =
        spice::log_sweep(cfg.f_start, cfg.f_stop, cfg.points_per_decade);
    const auto ac = spice::run_ac(ckt, op.solution, freqs);
    const auto out = *ckt.find_node("out");
    const auto inp = *ckt.find_node("inp");
    const auto h_ref = ac.transfer(out, inp);

    spice::AcSweepWorkspace ws;
    const auto h = spice::ac_sweep_transfer(ckt, op.solution, freqs, out, inp, ws);
    ASSERT_EQ(h.size(), h_ref.size());
    for (std::size_t i = 0; i < h.size(); ++i) {
        EXPECT_TRUE(bits_equal(h[i].real(), h_ref[i].real())) << "freq " << i;
        EXPECT_TRUE(bits_equal(h[i].imag(), h_ref[i].imag())) << "freq " << i;
    }

    // With a stop rule the sweep ends on the first prefix the rule accepts,
    // and that prefix is the full sweep's.
    const auto cut = spice::ac_sweep_transfer(ckt, op.solution, freqs, out, inp,
                                              ws, spice::bode_sweep_complete);
    ASSERT_LT(cut.size(), h_ref.size());
    for (std::size_t k = 1; k < cut.size(); ++k)
        EXPECT_FALSE(spice::bode_sweep_complete(std::span(h_ref).first(k))) << k;
    EXPECT_TRUE(spice::bode_sweep_complete(std::span(h_ref).first(cut.size())));
    for (std::size_t i = 0; i < cut.size(); ++i) {
        EXPECT_TRUE(bits_equal(cut[i].real(), h_ref[i].real())) << "freq " << i;
        EXPECT_TRUE(bits_equal(cut[i].imag(), h_ref[i].imag())) << "freq " << i;
    }
}

TEST(CircuitPrototype, CachesStructureAndSlots) {
    spice::CircuitPrototype proto(
        circuits::build_ota_testbench(circuits::OtaSizing{}, {}));
    EXPECT_TRUE(proto.circuit().finalized());
    EXPECT_EQ(proto.mosfets().size(), 10u);
    EXPECT_EQ(proto.node("out"), *proto.circuit().find_node("out"));
    EXPECT_NO_THROW((void)proto.device<spice::Mosfet>("m1"));
    EXPECT_THROW((void)proto.device<spice::Mosfet>("nope"), InvalidInputError);
    EXPECT_THROW((void)proto.node("nope"), InvalidInputError);
}

// ------------------------------------------------------------- OTA chunks

TEST(OtaChunk, BitIdenticalToScalarAcrossRandomSizings) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = random_sizings(12, 7);
    const auto chunk = evaluator.measure_chunk(sizings);
    ASSERT_EQ(chunk.size(), sizings.size());
    std::size_t valid = 0;
    for (std::size_t i = 0; i < sizings.size(); ++i) {
        const auto reference = rebuild_measure(evaluator.config(), sizings[i]);
        expect_perf_identical(reference, chunk[i]);
        expect_perf_identical(reference, evaluator.measure(sizings[i]));
        if (reference.valid) ++valid;
    }
    // The box sampling must exercise the real path, not just failures.
    EXPECT_GT(valid, 0u);
}

TEST(OtaChunk, BitIdenticalUnderProcessRealizations) {
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing; // nominal center point
    spice::Circuit ckt = circuits::build_ota_testbench(sizing, evaluator.config());
    const auto geometries = ckt.mos_geometries();
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());

    Rng rng(11);
    std::vector<process::Realization> reals;
    for (int i = 0; i < 8; ++i) reals.push_back(sampler.sample(rng, geometries));

    const auto chunk = evaluator.measure_chunk(sizing, reals);
    ASSERT_EQ(chunk.size(), reals.size());
    for (std::size_t i = 0; i < reals.size(); ++i) {
        const auto reference =
            rebuild_measure(evaluator.config(), sizing, &reals[i]);
        expect_perf_identical(reference, chunk[i]);
        expect_perf_identical(reference, evaluator.measure(sizing, reals[i]));
    }
}

TEST(OtaChunk, PairedSizingsAndRealizations) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = random_sizings(5, 3);
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    Rng rng(5);
    std::vector<process::Realization> reals;
    for (const auto& s : sizings) {
        spice::Circuit ckt = circuits::build_ota_testbench(s, evaluator.config());
        reals.push_back(sampler.sample(rng, ckt.mos_geometries()));
    }
    const auto chunk = evaluator.measure_chunk(sizings, reals);
    for (std::size_t i = 0; i < sizings.size(); ++i)
        expect_perf_identical(
            rebuild_measure(evaluator.config(), sizings[i], &reals[i]), chunk[i]);
}

TEST(OtaChunk, PairedChunkRejectsMismatchedSizes) {
    const circuits::OtaEvaluator evaluator;
    const auto sizings = random_sizings(2, 1);
    const std::vector<process::Realization> reals(1);
    EXPECT_THROW((void)evaluator.measure_chunk(sizings, reals), InvalidInputError);
}

TEST(OtaChunk, PrototypeSafeToRebindRepeatedly) {
    // A -> B -> A through one prototype: the third measurement must equal
    // the first bit-for-bit (no state leaks across re-binds), and both must
    // equal the fresh-build path.
    const circuits::OtaEvaluator evaluator;
    const auto ab = random_sizings(2, 19);
    const std::vector<circuits::OtaSizing> seq = {ab[0], ab[1], ab[0], ab[1],
                                                  ab[0]};
    const auto chunk = evaluator.measure_chunk(seq);
    expect_perf_identical(chunk[0], chunk[2]);
    expect_perf_identical(chunk[0], chunk[4]);
    expect_perf_identical(chunk[1], chunk[3]);
    expect_perf_identical(rebuild_measure(evaluator.config(), ab[0]), chunk[0]);
    expect_perf_identical(rebuild_measure(evaluator.config(), ab[1]), chunk[1]);
}

// ---------------------------------------------------------- prototype pool

TEST(PrototypePool, WarmInstanceBitIdenticalToCold) {
    // The persistent pool hands the same instance to successive chunk
    // calls; a warm instance (already measured dozens of points) must
    // answer bit-identically to a cold fresh-build measurement.
    const circuits::OtaEvaluator evaluator;
    const auto first = random_sizings(8, 41);
    const auto second = random_sizings(8, 43);

    const auto cold_rows = evaluator.measure_chunk(first);
    ASSERT_GE(evaluator.prototype_pool().created(), 1u);
    const std::size_t created_after_first = evaluator.prototype_pool().created();

    // Second chunk: must reuse the warm instance, not build a new one.
    const auto warm_rows = evaluator.measure_chunk(second);
    EXPECT_EQ(evaluator.prototype_pool().created(), created_after_first);
    EXPECT_GE(evaluator.prototype_pool().idle(), 1u);

    // Warm results equal a *fresh* evaluator's cold results bit-for-bit.
    const circuits::OtaEvaluator fresh;
    const auto fresh_rows = fresh.measure_chunk(second);
    ASSERT_EQ(warm_rows.size(), fresh_rows.size());
    for (std::size_t i = 0; i < warm_rows.size(); ++i)
        expect_perf_identical(fresh_rows[i], warm_rows[i]);
    // ... and the rebuild oracle agrees too.
    for (std::size_t i = 0; i < warm_rows.size(); ++i)
        expect_perf_identical(rebuild_measure(evaluator.config(), second[i]),
                              warm_rows[i]);
    (void)cold_rows;
}

TEST(PrototypePool, WarmReuseAcrossMixedChunkEntryPoints) {
    // All three OTA chunk entry points lease from one pool: sizing-only,
    // paired, and one-sizing/many-realisations calls share warm instances.
    const circuits::OtaEvaluator evaluator;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());
    const auto sizings = random_sizings(4, 47);

    (void)evaluator.measure_chunk(sizings);
    const std::size_t created = evaluator.prototype_pool().created();

    Rng rng(3);
    spice::Circuit tb =
        circuits::build_ota_testbench(sizings[0], evaluator.config());
    const auto geometries = tb.mos_geometries();
    std::vector<process::Realization> reals;
    for (int i = 0; i < 4; ++i)
        reals.push_back(sampler.sample(rng, geometries));

    (void)evaluator.measure_chunk(sizings, reals);
    (void)evaluator.measure_chunk(sizings[0], reals);
    EXPECT_EQ(evaluator.prototype_pool().created(), created);

    // Re-binding through the warm instance leaks no process state: the
    // nominal chunk after process-bound chunks equals the rebuild oracle.
    const auto after = evaluator.measure_chunk(sizings);
    for (std::size_t i = 0; i < sizings.size(); ++i)
        expect_perf_identical(rebuild_measure(evaluator.config(), sizings[i]),
                              after[i]);
}

TEST(PrototypePool, FilterPoolKeyedByModelKind) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    Rng rng(53);
    std::vector<circuits::FilterSizing> sizings;
    for (int i = 0; i < 4; ++i)
        sizings.push_back({rng.uniform(2e-12, 60e-12), rng.uniform(2e-12, 60e-12),
                           rng.uniform(2e-12, 60e-12)});

    // The behavioural and transistor testbenches are structurally different
    // circuits, so each kind builds (and then reuses) its own prototype.
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::behavioural);
    EXPECT_EQ(evaluator.prototype_pool().created(), 1u);
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::transistor);
    EXPECT_EQ(evaluator.prototype_pool().created(), 2u);
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::behavioural);
    (void)evaluator.measure_chunk(sizings, circuits::OtaModelKind::transistor);
    EXPECT_EQ(evaluator.prototype_pool().created(), 2u);
    EXPECT_EQ(evaluator.prototype_pool().idle(), 2u);

    // Warm reuse stays bit-identical to the rebuild oracle for both kinds.
    for (auto kind : {circuits::OtaModelKind::behavioural,
                      circuits::OtaModelKind::transistor}) {
        const auto warm = evaluator.measure_chunk(sizings, kind);
        for (std::size_t i = 0; i < sizings.size(); ++i) {
            const auto scalar = rebuild_measure(evaluator, sizings[i], kind);
            ASSERT_EQ(scalar.valid, warm[i].valid);
            if (!scalar.valid) continue;
            EXPECT_TRUE(bits_equal(scalar.fc, warm[i].fc));
            EXPECT_TRUE(bits_equal(scalar.worst_passband_dev_db,
                                   warm[i].worst_passband_dev_db));
        }
    }
}

TEST(PrototypePool, CopiedEvaluatorSharesWarmPool) {
    const circuits::OtaEvaluator original;
    (void)original.measure_chunk(random_sizings(2, 59));
    const std::size_t created = original.prototype_pool().created();
    const circuits::OtaEvaluator copy = original; // same config -> shares pool
    (void)copy.measure_chunk(random_sizings(2, 61));
    EXPECT_EQ(original.prototype_pool().created(), created);
}

// ----------------------------------------------------------- filter chunks

TEST(FilterChunk, BitIdenticalToScalarBothKinds) {
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    Rng rng(23);
    std::vector<circuits::FilterSizing> sizings;
    for (int i = 0; i < 6; ++i)
        sizings.push_back({rng.uniform(2e-12, 60e-12), rng.uniform(2e-12, 60e-12),
                           rng.uniform(2e-12, 60e-12)});
    for (auto kind : {circuits::OtaModelKind::behavioural,
                      circuits::OtaModelKind::transistor}) {
        const auto chunk = evaluator.measure_chunk(sizings, kind);
        ASSERT_EQ(chunk.size(), sizings.size());
        for (std::size_t i = 0; i < sizings.size(); ++i) {
            const auto scalar = rebuild_measure(evaluator, sizings[i], kind);
            const auto lease = evaluator.measure(sizings[i], kind);
            ASSERT_EQ(lease.valid, chunk[i].valid);
            ASSERT_EQ(scalar.valid, chunk[i].valid);
            if (!scalar.valid) continue;
            EXPECT_TRUE(bits_equal(lease.fc, chunk[i].fc));
            EXPECT_TRUE(bits_equal(scalar.fc, chunk[i].fc));
            EXPECT_TRUE(bits_equal(scalar.passband_gain_db,
                                   chunk[i].passband_gain_db));
            EXPECT_TRUE(bits_equal(scalar.stopband_atten_db,
                                   chunk[i].stopband_atten_db));
            EXPECT_TRUE(bits_equal(scalar.worst_passband_dev_db,
                                   chunk[i].worst_passband_dev_db));
        }
    }
}

void expect_filter_identical(const circuits::FilterPerformance& reference,
                             const circuits::FilterPerformance& warm) {
    ASSERT_EQ(reference.valid, warm.valid);
    EXPECT_EQ(reference.failure, warm.failure);
    EXPECT_TRUE(bits_equal(reference.passband_gain_db, warm.passband_gain_db));
    EXPECT_TRUE(bits_equal(reference.fc, warm.fc));
    EXPECT_TRUE(bits_equal(reference.stopband_atten_db,
                           warm.stopband_atten_db));
    EXPECT_TRUE(bits_equal(reference.worst_passband_dev_db,
                           warm.worst_passband_dev_db));
}

TEST(FilterChunk, WarmLeaseAfterVariedPointMeasuresNominalLikeColdBuild) {
    // A prototype that last measured varied macromodel specs or a process
    // realisation must re-bind the nominal point completely.
    const circuits::FilterEvaluator evaluator{circuits::FilterConfig{},
                                              circuits::FilterSpecMask{}};
    const circuits::FilterSizing sizing{48e-12, 24e-12, 8e-12};

    circuits::FilterOtaSpecs varied{evaluator.config().ota_spec,
                                    evaluator.config().ota_spec};
    varied.ota1.gain_db *= 0.9;
    varied.ota2.f3db *= 0.5;
    varied.ota2.rout *= 2.0;
    {
        const auto proto = evaluator.lease(circuits::OtaModelKind::behavioural);
        const auto moved = proto->measure(sizing, &varied);
        const auto nominal = proto->measure(sizing);
        ASSERT_TRUE(moved.valid);
        EXPECT_FALSE(bits_equal(moved.fc, nominal.fc));
        expect_filter_identical(
            rebuild_measure(evaluator, sizing,
                            circuits::OtaModelKind::behavioural),
            nominal);
    }

    const process::ProcessSampler sampler(evaluator.config().ota_config.card,
                                          process::VariationSpec::c35());
    const auto proto = evaluator.lease(circuits::OtaModelKind::transistor);
    Rng rng(29);
    const process::Realization real =
        sampler.sample(rng, proto->mos_geometries());
    const auto moved = proto->measure(sizing, nullptr, &real);
    const auto nominal = proto->measure(sizing);
    ASSERT_TRUE(moved.valid);
    EXPECT_FALSE(bits_equal(moved.fc, nominal.fc));
    expect_filter_identical(
        rebuild_measure(evaluator, sizing, circuits::OtaModelKind::transistor),
        nominal);
}

// --------------------------------------------------- problem batch + engine

TEST(ProblemBatch, OtaEvaluateBatchMatchesScalar) {
    const circuits::OtaProblem problem;
    const auto sizings = random_sizings(6, 31);
    std::vector<std::vector<double>> points;
    for (const auto& s : sizings) points.push_back(s.to_vector());
    const auto batch = problem.evaluate_batch(points);
    ASSERT_EQ(batch.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        expect_rows_identical(problem.evaluate(points[i]), batch[i]);
}

TEST(ProblemBatch, FilterEvaluateBatchMatchesScalar) {
    const circuits::FilterProblem problem{circuits::FilterConfig{},
                                          circuits::FilterSpecMask{}};
    Rng rng(37);
    std::vector<std::vector<double>> points;
    for (int i = 0; i < 6; ++i)
        points.push_back({rng.uniform(2e-12, 60e-12), rng.uniform(2e-12, 60e-12),
                          rng.uniform(2e-12, 60e-12)});
    const auto batch = problem.evaluate_batch(points);
    for (std::size_t i = 0; i < points.size(); ++i)
        expect_rows_identical(problem.evaluate(points[i]), batch[i]);
}

TEST(ProblemBatch, EngineEvaluationThreadCountInvariant) {
    // The engine chunks batches differently per worker count; the chunk
    // kernels must make that invisible.
    const circuits::OtaProblem problem;
    const auto sizings = random_sizings(10, 41);
    std::vector<std::vector<double>> points;
    for (const auto& s : sizings) points.push_back(s.to_vector());

    std::vector<std::vector<eval::EvalResult>> runs;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        eval::EngineConfig config;
        config.threads = threads;
        eval::Engine engine(config);
        runs.push_back(moo::evaluate_population(engine, problem, points));
    }
    for (std::size_t t = 1; t < runs.size(); ++t) {
        ASSERT_EQ(runs[t].size(), runs[0].size());
        for (std::size_t i = 0; i < runs[0].size(); ++i)
            expect_rows_identical(runs[0][i].values, runs[t][i].values);
    }
    // And the engine path must agree with the scalar problem path.
    for (std::size_t i = 0; i < points.size(); ++i)
        expect_rows_identical(problem.evaluate(points[i]), runs[0][i].values);
}

TEST(ProblemBatch, OtaMonteCarloChunkMatchesScalarStreams) {
    // The chunked MC path (prototype reuse) must reproduce per-sample
    // rebuild measurements sample-for-sample: same child streams, same rows.
    const circuits::OtaEvaluator evaluator;
    const circuits::OtaSizing sizing;
    const process::ProcessSampler sampler(evaluator.config().card,
                                          process::VariationSpec::c35());

    spice::Circuit proto =
        circuits::build_ota_testbench(sizing, evaluator.config());
    const auto geometries = proto.mos_geometries();

    mc::McConfig cfg;
    cfg.samples = 16;
    eval::Engine engine;
    Rng r_scalar(77);
    const auto scalar = mc::run_monte_carlo(
        engine, cfg, r_scalar,
        testsupport::per_sample(
            [&](std::size_t, Rng& sample_rng) -> std::vector<double> {
                const auto real = sampler.sample(sample_rng, geometries);
                const auto perf =
                    rebuild_measure(evaluator.config(), sizing, &real);
                if (!perf.valid) return moo::failed_evaluation(2);
                return {perf.gain_db, perf.pm_deg};
            }));

    Rng r_chunk(77);
    const auto chunked = core::run_ota_monte_carlo(engine, evaluator, sizing,
                                                   sampler, cfg.samples, r_chunk);
    ASSERT_EQ(chunked.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        expect_rows_identical(scalar.row(i), chunked.row(i));
}

} // namespace
