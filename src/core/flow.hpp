#pragma once
/// \file flow.hpp
/// \brief The paper's Fig. 3 pipeline, end to end:
///        1. netlist + objective generation     (circuits::OtaProblem)
///        2. multi-objective optimisation        (moo::Wbga), optionally
///           yield-aware: low-budget yield probes (yield::YieldProbe) feed
///           estimated yield into the WBGA fitness each generation
///        3. performance model from Pareto front (moo::pareto + sort)
///        4. variation model from Monte Carlo    (core::run_ota_monte_carlo)
///           + optional yield certification via the variance-reduction
///           yield engine (yield::run_yield_points)
///        5. table model generation              (core::write_artifacts)
///
/// With probes enabled the pipeline is *two-tier*: cheap coarse-CI yield
/// estimates steer selection inside the optimiser (tier 1), and the full
/// sequential certification runs only on the surviving front (tier 2).
/// Probes off reproduces the certification-only flow bit-for-bit.

#include <cstdint>
#include <string>
#include <vector>

#include "circuits/ota.hpp"
#include "core/artifacts.hpp"
#include "eval/engine.hpp"
#include "mc/yield.hpp"
#include "moo/wbga.hpp"
#include "process/variation.hpp"
#include "yield/probe.hpp"
#include "yield/sequential.hpp"

namespace ypm::core {

struct FlowConfig {
    moo::WbgaConfig ga;             ///< paper: population 100 x 100 generations
    std::size_t mc_samples = 200;   ///< paper: 200 per Pareto point
    std::size_t max_mc_points = 0;  ///< cap MC to N front points (0 = all),
                                    ///< evenly subsampled along the front
                                    ///< (1 = the middle point)
    std::uint64_t seed = 1;
    std::string artifact_dir;       ///< empty = skip file output
    process::VariationSpec variation = process::VariationSpec::c35();
    bool parallel = true;
    std::size_t eval_cache = 4096;  ///< engine memoisation entries; 0 disables

    /// Front hygiene: extreme Pareto endpoints (near-zero phase margin,
    /// exploding relative variation, frequent MC failures) are useless in a
    /// model and poison the spline tables; points below these limits, or
    /// past the fixed variation and MC-failure limits in flow.cpp, are
    /// dropped from the variation model.
    double min_front_pm_deg = 10.0;
    double min_front_gain_db = 1.0;

    /// Yield certification (step 4, after the hygiene filters): when
    /// non-empty, every surviving front point's parametric yield against
    /// these specs is estimated with the variance-reduction yield engine
    /// (pilot + importance sampling + sequential early stop). Spec columns
    /// are {gain_db, pm_deg}, in that order.
    std::vector<mc::Spec> yield_specs;
    /// Per-point pilot/chunk/early-stop settings for the yield stage,
    /// including the proposal-family knobs: `mixture_proposal` (defensive
    /// mixture vs legacy single shift), `refine_after_chunks`/`max_refits`
    /// (cross-entropy refinement) and `shift_fit.defensive_weight`. To
    /// certify with an estimator-zoo member, specialize it first:
    /// `yield_sequential = EstimatorRegistry::instance().create(name)
    /// ->configure(yield_sequential)` (yield/estimator.hpp).
    yield::SequentialConfig yield_sequential;
    /// Yield-in-the-loop probes (step 2): when `yield_probe.budget` > 0,
    /// every WBGA generation at or past `ga.robustness.activation_generation`
    /// runs a low-budget yield probe per (selected) individual against
    /// `yield_specs`, and the estimated yield enters the eq. (5) fitness per
    /// the rest of `ga.robustness` (mode, yield_weight, min_yield,
    /// max_points). Requires non-empty `yield_specs`. Probes ride the same
    /// engine, estimator zoo and base `yield_sequential` as certification.
    /// The flow owns `ga.robustness.probe` (a caller-set probe is replaced);
    /// budget 0 (the default) reproduces the certification-only flow
    /// bit-for-bit.
    yield::ProbeConfig yield_probe;
    /// When non-empty, span tracing (obs::Tracer) is enabled for this run
    /// and the collected trace - flow step spans, engine batches, kernel
    /// chunks, yield chunk diagnostics, plus a metrics snapshot - is
    /// written here as Chrome trace-event JSON (chrome://tracing /
    /// Perfetto loadable). Purely observational: results are bit-identical
    /// with tracing on or off. Tracing is disabled again when run()
    /// returns.
    std::string trace_path;
};

struct FlowTimings {
    double moo_seconds = 0.0;
    double probe_seconds = 0.0; ///< inside moo_seconds: the probe share
    double mc_seconds = 0.0;
    double yield_seconds = 0.0;
    double table_seconds = 0.0;
    double total_seconds = 0.0;
    std::size_t moo_evaluations = 0; ///< points submitted by the optimiser
    std::size_t mc_evaluations = 0;  ///< points submitted by the MC stage
    std::size_t probe_points = 0;    ///< individuals probed during the GA
    std::size_t probe_samples = 0;   ///< yield samples spent by the probes

    /// The engine's ledger for the whole run: every testbench evaluation of
    /// the Fig. 3 pipeline (GA, nominal re-measures, MC) flows through one
    /// engine instance, so requests/evaluations/cache_hits/failures add up
    /// here and nowhere else.
    eval::EngineCounters engine;
};

struct FlowResult {
    moo::WbgaResult optimisation;
    std::vector<std::size_t> pareto_indices; ///< into optimisation.archive
    std::vector<FrontPointData> front;       ///< MC-enriched, sorted by gain
    std::vector<FrontPointYield> yields;     ///< parallel to front; empty
                                             ///< unless config.yield_specs set
    ModelArtifacts artifacts;                ///< empty paths if no artifact_dir
    FlowTimings timings;
};

class YieldFlow {
public:
    YieldFlow(circuits::OtaConfig ota, FlowConfig config);

    /// Run the full pipeline. Deterministic in config.seed.
    [[nodiscard]] FlowResult run() const;

    [[nodiscard]] const FlowConfig& config() const { return config_; }
    [[nodiscard]] const circuits::OtaConfig& ota_config() const { return ota_; }

private:
    circuits::OtaConfig ota_;
    FlowConfig config_;
};

/// Step 3 alone: extract and sort the front from an optimisation archive.
/// Returns archive indices of non-dominated points, sorted by gain.
[[nodiscard]] std::vector<std::size_t>
extract_front_indices(const moo::WbgaResult& result);

} // namespace ypm::core
