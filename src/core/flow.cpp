#include "core/flow.hpp"

#include <algorithm>
#include <memory>

#include "circuits/ota_problem.hpp"
#include "core/ota_mc.hpp"
#include "moo/pareto.hpp"
#include "moo/problem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "yield/probe.hpp"

namespace ypm::core {

namespace {

/// Scoped tracing session: enables the tracer for the run when a trace
/// path is configured, and on destruction (normal or exceptional) drains
/// the collected events, writes the Chrome trace JSON with an embedded
/// metrics snapshot, and disables tracing again.
class TraceSession {
public:
    explicit TraceSession(std::string path) : path_(std::move(path)) {
        if (path_.empty()) return;
        obs::Tracer::set_enabled(true);
        // Drop events left over from earlier runs in this process, so the
        // file describes exactly this flow.
        obs::Tracer::global().clear();
    }
    ~TraceSession() {
        if (path_.empty()) return;
        obs::Tracer::set_enabled(false);
        try {
            const auto events = obs::Tracer::global().drain();
            const auto metrics = obs::MetricsRegistry::global().snapshot();
            obs::write_chrome_trace(path_, events, &metrics);
            log::info("flow: trace written to ", path_, " (",
                      events.size(), " events)\n",
                      obs::trace_summary_table(events));
        } catch (const std::exception& err) {
            log::error("flow: failed to write trace: ", err.what());
        }
    }
    TraceSession(const TraceSession&) = delete;
    TraceSession& operator=(const TraceSession&) = delete;

private:
    std::string path_;
};

/// Cache-key tag for the nominal Bode kernel: it returns
/// {gain, pm, f3db, gbw} for the same parameter points the objectives
/// kernel maps to {gain, pm}, so it needs its own key space.
constexpr std::uint64_t kBodeTag = 0x626f6465; // "bode"

/// Front hygiene limits on a point's MC run (see FlowConfig): its 3-sigma
/// relative variation of gain or phase margin, in %, and its share of
/// failed samples.
constexpr double kMaxFrontDeltaPct = 25.0;
constexpr double kMaxFrontMcFailureRatio = 0.2;

} // namespace

YieldFlow::YieldFlow(circuits::OtaConfig ota, FlowConfig config)
    : ota_(ota), config_(config) {}

std::vector<std::size_t> extract_front_indices(const moo::WbgaResult& result) {
    std::vector<std::vector<double>> objectives;
    objectives.reserve(result.archive.size());
    for (const auto& e : result.archive) objectives.push_back(e.objectives);
    const std::vector<moo::ObjectiveSpec> specs = {
        {"gain_db", moo::Direction::maximize}, {"pm_deg", moo::Direction::maximize}};
    auto front = moo::pareto_front_indices_2d(objectives, specs);
    std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
        return result.archive[a].objectives[0] < result.archive[b].objectives[0];
    });
    // Elites re-enter the archive every generation, and identical objective
    // vectors are mutually non-dominated - keep one representative each.
    front.erase(std::unique(front.begin(), front.end(),
                            [&](std::size_t a, std::size_t b) {
                                return result.archive[a].objectives ==
                                       result.archive[b].objectives;
                            }),
                front.end());
    return front;
}

FlowResult YieldFlow::run() const {
    // Fail fast, before the expensive MOO/MC stages: the OTA yield kernel's
    // row layout is fixed at {gain_db, pm_deg, log_weight}, so the specs
    // must match it positionally - a reversed pair would otherwise certify
    // silently wrong yields. The probe and GA settings are checked by their
    // owners (YieldProbe, Wbga), which are both built before the GA runs.
    if (!config_.yield_specs.empty()) {
        if (config_.yield_specs.size() != 2 ||
            config_.yield_specs[0].name != "gain_db" ||
            config_.yield_specs[1].name != "pm_deg")
            throw InvalidInputError(
                "YieldFlow: yield_specs must be exactly {gain_db, pm_deg}, in "
                "that order (the OTA yield kernel's column layout)");
        yield::validate_sequential_config(config_.yield_sequential);
    }
    const bool probes_on = config_.yield_probe.budget > 0;
    if (probes_on && config_.yield_specs.empty())
        throw InvalidInputError(
            "YieldFlow: yield_probe.budget is set but yield_specs is empty - "
            "probes need the specs to estimate yield against");

    const TraceSession trace(config_.trace_path);
    const util::TickNs t_start = util::now_ns();
    obs::Span run_span("flow.run", "flow");
    FlowResult result;
    Rng rng(config_.seed);

    // One evaluation engine for the whole Fig. 3 pipeline: the GA, the
    // per-point nominal re-measures and the Monte Carlo stage share its
    // scheduler, cache and ledger.
    eval::EngineConfig engine_config;
    engine_config.parallel = config_.parallel;
    engine_config.cache_capacity = config_.eval_cache;
    eval::Engine engine(engine_config);

    // Steps 1-2: problem definition + WBGA optimisation. The process
    // sampler is shared by the optimiser-side probes and the step-4 MC /
    // certification stages (its construction draws nothing, so hoisting it
    // above the GA leaves the probe-off flow bit-identical).
    circuits::OtaProblem problem(ota_);
    const circuits::OtaEvaluator& evaluator = problem.evaluator();
    const process::ProcessSampler sampler(ota_.card, config_.variation);
    moo::WbgaConfig ga = config_.ga;
    ga.engine = &engine;
    ga.robustness.probe = nullptr;

    // Tier 1, yield in the loop: a low-budget probe per (selected)
    // individual feeds estimated yield into the WBGA fitness through the
    // robustness channel. The probe RNG derives from a dedicated child
    // stream (4) of the flow seed, keyed per generation - streams 1-3
    // (GA / MC / certification) are untouched, so probes off is
    // bit-identical by construction.
    std::unique_ptr<yield::YieldProbe> probe;
    if (probes_on) {
        // The u-record dimension is a topology property, identical for
        // every sizing (see ota_yield_dimension) - probe it at the box
        // midpoint without running any simulation.
        std::vector<double> midpoint;
        midpoint.reserve(problem.parameters().size());
        for (const auto& p : problem.parameters())
            midpoint.push_back(0.5 * (p.lo + p.hi));
        const std::size_t dimension = ota_yield_dimension(
            evaluator, circuits::OtaSizing::from_vector(midpoint));
        probe = std::make_unique<yield::YieldProbe>(
            config_.yield_probe, config_.yield_sequential, config_.yield_specs,
            [&evaluator, &sampler](const std::vector<double>& params) {
                return ota_yield_kernel_factory(
                    evaluator, circuits::OtaSizing::from_vector(params),
                    sampler);
            },
            dimension);

        const Rng probe_rng = rng.child(4);
        ga.robustness.probe =
            [&engine, &result, probe_rng,
             probe_ptr = probe.get()](const std::vector<std::vector<double>>& pts,
                                      std::size_t generation) {
                obs::Span span("flow.probe", "flow");
                span.arg("generation", static_cast<double>(generation));
                span.arg("points", static_cast<double>(pts.size()));
                const util::TickNs t0 = util::now_ns();
                const std::size_t before = probe_ptr->total_samples();
                const auto probed = probe_ptr->probe(
                    engine, pts, probe_rng.child(generation + 1), generation);
                std::vector<double> yields(probed.size());
                for (std::size_t i = 0; i < probed.size(); ++i)
                    yields[i] = probed[i].estimate.yield;
                result.timings.probe_seconds += util::seconds_since(t0);
                result.timings.probe_points += pts.size();
                result.timings.probe_samples +=
                    probe_ptr->total_samples() - before;
                span.arg("samples",
                         static_cast<double>(probe_ptr->total_samples() - before));
                return yields;
            };
    }

    const moo::Wbga optimiser(problem, ga);
    {
        obs::Span span("flow.moo", "flow");
        const util::TickNs t0 = util::now_ns();
        Rng ga_rng = rng.child(1);
        result.optimisation = optimiser.run(ga_rng, [](std::size_t gen, double best) {
            log::info("flow: generation ", gen, " best fitness ", best);
        });
        result.timings.moo_seconds = util::seconds_since(t0);
        result.timings.moo_evaluations = result.optimisation.evaluations;
        span.arg("evaluations",
                 static_cast<double>(result.timings.moo_evaluations));
        if (probe)
            log::info("flow: probes spent ", result.timings.probe_samples,
                      " yield samples across ", result.timings.probe_points,
                      " individuals");
    }

    // Step 3: performance model from the Pareto front.
    result.pareto_indices = extract_front_indices(result.optimisation);
    log::info("flow: pareto front has ", result.pareto_indices.size(), " points");

    // Optional subsampling for MC budget control (evenly along the front).
    std::vector<std::size_t> mc_points = result.pareto_indices;
    if (config_.max_mc_points > 0 && mc_points.size() > config_.max_mc_points) {
        std::vector<std::size_t> picked;
        picked.reserve(config_.max_mc_points);
        if (config_.max_mc_points == 1) {
            // One point: the middle of the front (the even spacing below
            // would divide by zero).
            picked.push_back(mc_points[(mc_points.size() - 1) / 2]);
        } else {
            const double step = static_cast<double>(mc_points.size() - 1) /
                                static_cast<double>(config_.max_mc_points - 1);
            for (std::size_t k = 0; k < config_.max_mc_points; ++k) {
                const auto idx = static_cast<std::size_t>(
                    static_cast<double>(k) * step + 0.5);
                picked.push_back(
                    mc_points[std::min(idx, mc_points.size() - 1)]);
            }
        }
        picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
        mc_points = std::move(picked);
    }

    // Step 4: variation model - MC on every (selected) Pareto point. The
    // stages stream: every point's nominal-Bode batch and MC run is
    // submitted before any result is retired, so misses from all points
    // overlap on the engine's pool instead of barriering point-by-point.
    {
        const util::TickNs t0 = util::now_ns();
        Rng mc_rng = rng.child(2);

        const eval::ChunkKernelFn bode_kernel =
            [&](const std::vector<const eval::EvalRequest*>& requests) {
                std::vector<circuits::OtaSizing> sizings;
                sizings.reserve(requests.size());
                for (const eval::EvalRequest* r : requests)
                    sizings.push_back(circuits::OtaSizing::from_vector(r->params));
                std::vector<std::vector<double>> rows;
                rows.reserve(sizings.size());
                for (const auto& perf : evaluator.measure_chunk(sizings)) {
                    if (!perf.valid) {
                        rows.push_back(moo::failed_evaluation(4));
                        continue;
                    }
                    rows.push_back({perf.gain_db, perf.pm_deg, perf.bode.f3db,
                                    perf.bode.gbw});
                }
                return rows;
            };

        // Pre-filter on archive objectives alone (no simulation needed), so
        // only points worth a Monte Carlo budget get submitted at all.
        struct PointStage {
            FrontPointData point;
            eval::Engine::Ticket bode;
            mc::McTicket mc;
        };
        std::vector<PointStage> stages;
        stages.reserve(mc_points.size());
        for (std::size_t archive_idx : mc_points) {
            const auto& e = result.optimisation.archive[archive_idx];
            PointStage stage;
            stage.point.sizing = circuits::OtaSizing::from_vector(e.params);
            stage.point.gain_db = e.objectives[0];
            stage.point.pm_deg = e.objectives[1];
            stage.point.probe_yield = e.robustness;
            // Front hygiene: skip endpoints no model query should land on.
            if (stage.point.pm_deg < config_.min_front_pm_deg ||
                stage.point.gain_db < config_.min_front_gain_db) {
                log::debug("flow: dropping extreme front point (gain ",
                           stage.point.gain_db, " dB, pm ", stage.point.pm_deg,
                           " deg)");
                continue;
            }
            stages.push_back(std::move(stage));
        }

        // Submission pass: per point, the nominal Bode batch followed by
        // the MC run. Each point's RNG stream derives from its submission
        // position, independent of later hygiene filtering. Everything is
        // in flight at once: an MC request carries no parameters (just a
        // sample id) and a result row is two doubles, so even a full
        // paper-scale front (~1000 points x 200 samples) stays in the
        // low-megabyte range; max_mc_points bounds it when that matters.
        for (std::size_t i = 0; i < stages.size(); ++i) {
            PointStage& stage = stages[i];
            eval::EvalBatch bode_batch(kBodeTag);
            bode_batch.add(stage.point.sizing.to_vector());
            stage.bode = engine.submit(std::move(bode_batch), bode_kernel);
            Rng point_rng = mc_rng.child(i + 1);
            stage.mc =
                submit_ota_monte_carlo(engine, evaluator, stage.point.sizing,
                                       sampler, config_.mc_samples, point_rng);
            result.timings.mc_evaluations += config_.mc_samples;
        }

        // Retirement pass, in submission order: apply the MC-dependent
        // hygiene filters and number the surviving designs sequentially.
        result.front.reserve(stages.size());
        std::size_t design_id = 1;
        for (PointStage& stage : stages) {
            FrontPointData point = stage.point;
            const auto nominal = engine.wait(std::move(stage.bode));
            if (!nominal.front().failed()) {
                point.f3db = nominal.front().values[2];
                point.gbw = nominal.front().values[3];
            }

            const mc::McResult mc_result =
                mc::wait_monte_carlo(engine, std::move(stage.mc));
            point.mc_failures = mc_result.failed();
            if (static_cast<double>(point.mc_failures) >
                kMaxFrontMcFailureRatio *
                    static_cast<double>(config_.mc_samples))
                continue;
            const auto gain_var = mc_result.column_variation(0);
            const auto pm_var = mc_result.column_variation(1);
            point.dgain_pct = gain_var.delta_3sigma_pct;
            point.dpm_pct = pm_var.delta_3sigma_pct;
            point.dgain_halfrange_pct = gain_var.delta_halfrange_pct;
            point.dpm_halfrange_pct = pm_var.delta_halfrange_pct;
            if (point.dgain_pct > kMaxFrontDeltaPct ||
                point.dpm_pct > kMaxFrontDeltaPct)
                continue;
            point.design_id = design_id++;
            result.front.push_back(point);
        }
        result.timings.mc_seconds = util::seconds_since(t0);
        // Recorded explicitly (not RAII) so the span ends here: the yield
        // stage below shares this scope's locals but is its own flow step.
        if (obs::Tracer::enabled())
            obs::Tracer::record_complete(
                "flow.mc", "flow", t0, util::now_ns(),
                {{"points", static_cast<double>(stages.size())},
                 {"samples_per_point",
                  static_cast<double>(config_.mc_samples)}});

        // Yield certification: importance-sampled sequential estimation per
        // surviving point, all points driven together. Rides the same
        // engine (streamed chunks, warm prototypes, one ledger).
        if (!config_.yield_specs.empty() && !result.front.empty()) {
            obs::Span yield_span("flow.yield", "flow");
            yield_span.arg("points", static_cast<double>(result.front.size()));
            const util::TickNs t1 = util::now_ns();
            const std::size_t dimension =
                ota_yield_dimension(evaluator, result.front.front().sizing);
            std::vector<yield::YieldPoint> points;
            points.reserve(result.front.size());
            for (const FrontPointData& point : result.front) {
                yield::YieldPoint yp;
                yp.specs = config_.yield_specs;
                yp.factory =
                    ota_yield_kernel_factory(evaluator, point.sizing, sampler);
                yp.dimension = dimension;
                points.push_back(std::move(yp));
            }
            auto estimates = yield::run_yield_points(
                engine, config_.yield_sequential, points, rng.child(3));
            result.yields.reserve(estimates.size());
            for (std::size_t i = 0; i < estimates.size(); ++i) {
                log::info("flow: design ", result.front[i].design_id, " yield ",
                          estimates[i].estimate.yield, " (",
                          estimates[i].samples_used, " samples, ESS ",
                          estimates[i].estimate.ess, ")");
                result.yields.push_back(
                    {result.front[i].design_id, std::move(estimates[i])});
            }
            result.timings.yield_seconds = util::seconds_since(t1);
        }
    }

    // Step 5: table model generation.
    if (!config_.artifact_dir.empty() && result.front.size() < 3) {
        log::warn("flow: only ", result.front.size(),
                  " usable front points after filtering - skipping artifacts");
    } else if (!config_.artifact_dir.empty()) {
        obs::Span span("flow.table", "flow");
        const util::TickNs t0 = util::now_ns();
        result.artifacts =
            write_artifacts(result.front, result.yields, config_.artifact_dir);
        result.timings.table_seconds = util::seconds_since(t0);
    }

    result.timings.engine = engine.counters();
    result.timings.total_seconds = util::seconds_since(t_start);
    run_span.arg("requests",
                 static_cast<double>(result.timings.engine.requests));
    run_span.arg("evaluations",
                 static_cast<double>(result.timings.engine.evaluations));
    run_span.arg("cache_hits",
                 static_cast<double>(result.timings.engine.cache_hits));
    run_span.arg("failures",
                 static_cast<double>(result.timings.engine.failures));
    return result;
}

} // namespace ypm::core
