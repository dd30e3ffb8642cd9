#include "yield/sequential.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ypm::yield {

namespace {

/// Yield-runner instruments, resolved once; always-on (a few relaxed
/// atomic adds per retired *chunk*).
struct YieldMetrics {
    obs::Counter& chunks;
    obs::Counter& samples;
    obs::Counter& refits;

    static YieldMetrics& get() {
        auto& registry = obs::MetricsRegistry::global();
        static YieldMetrics metrics{registry.counter("yield.chunks"),
                                    registry.counter("yield.samples"),
                                    registry.counter("yield.refits")};
        return metrics;
    }
};

} // namespace

SequentialYieldRunner::SequentialYieldRunner(eval::Engine& engine,
                                             SequentialConfig config,
                                             std::vector<mc::Spec> specs,
                                             KernelFactory factory,
                                             std::size_t dimension, Rng rng)
    : engine_(engine), config_(config), specs_(std::move(specs)),
      factory_(std::move(factory)), dimension_(dimension), rng_(rng) {
    if (specs_.empty())
        throw InvalidInputError("SequentialYieldRunner: need >= 1 spec");
    if (!factory_)
        throw InvalidInputError("SequentialYieldRunner: null kernel factory");
    if (config_.chunk_samples == 0)
        throw InvalidInputError("SequentialYieldRunner: chunk_samples must be >= 1");
    if (config_.max_samples == 0)
        throw InvalidInputError("SequentialYieldRunner: max_samples must be >= 1");
    if (config_.min_samples > config_.max_samples)
        throw InvalidInputError(
            "SequentialYieldRunner: min_samples exceeds max_samples - the "
            "early stop would be silently unreachable and every run would "
            "burn the full sample cap");
    if (!(config_.shift_fit.defensive_weight >= 0.0 &&
          config_.shift_fit.defensive_weight < 1.0))
        throw InvalidInputError(
            "SequentialYieldRunner: shift_fit.defensive_weight must be in "
            "[0, 1)");
    if (config_.inflight == 0) config_.inflight = 1;
    // CE refinement needs u records on the main stage and at least one
    // failing record per refit.
    record_main_u_ = config_.refine_after_chunks > 0 && config_.max_refits > 0;
    if (!config_.initial_proposal.components.empty()) {
        if (config_.pilot_samples > 0)
            throw InvalidInputError(
                "SequentialYieldRunner: initial_proposal (warm start) and a "
                "pilot stage are mutually exclusive - set pilot_samples to 0 "
                "to run from the warm proposal, or clear the proposal to "
                "refit from a pilot");
        config_.initial_proposal.validate(dimension_);
    }
    if (config_.refit_min_failures == 0) config_.refit_min_failures = 1;
    // Zero retired samples must report the vacuous interval [0, 1], not a
    // default-constructed point interval [0, 0] pretending certainty.
    estimate_ = weighted_yield_from_flags({}, {});
    pilot_estimate_ = estimate_;
}

void SequentialYieldRunner::submit_pilot() {
    if (pilot_submitted_ || config_.pilot_samples == 0) return;
    process::SampleShift pilot_shift;
    pilot_shift.scale = config_.pilot_scale;
    mc::McConfig cfg;
    cfg.samples = config_.pilot_samples;
    pilot_ticket_ = mc::submit_monte_carlo(
        engine_, cfg, rng_,
        factory_(process::ProposalMixture::single(pilot_shift), true));
    pilot_submitted_ = true;
}

void SequentialYieldRunner::finish_pilot() {
    if (pilot_finished_) return;
    if (pilot_submitted_) {
        obs::Span span("yield.pilot", "yield");
        span.arg("samples", static_cast<double>(config_.pilot_samples));
        const mc::McResult pilot = mc::wait_monte_carlo(engine_, pilot_ticket_);
        // Pilot estimate: the pilot proposal is widened, so it is itself a
        // (low-accuracy) importance-sampled estimate - a useful sanity
        // diagnostic next to the main stage.
        std::vector<bool> flags;
        std::vector<double> log_weights;
        append_flags_and_weights(pilot.rows, specs_,
                                 specs_.size() + 1 + dimension_, flags,
                                 log_weights);
        pilot_estimate_ = weighted_yield_from_flags(flags, log_weights);
        fit_ = fit_shift(pilot.rows, specs_, dimension_, config_.shift_fit);
        pilot_failures_ = fit_.pilot_failures;
        span.arg("failures", static_cast<double>(pilot_failures_));
    }
    if (!pilot_submitted_ && !config_.initial_proposal.components.empty()) {
        // Warm start: bind the carried-over proposal directly (the ctor
        // guarantees no pilot was configured alongside it).
        main_proposal_ = config_.initial_proposal;
        main_arity_ = specs_.size() + 1 + (record_main_u_ ? dimension_ : 0);
        main_kernel_ = factory_(main_proposal_, record_main_u_);
    } else {
        // No pilot (or no pilot failures): the fitted proposal stays nominal
        // and the main stage is plain Monte Carlo with unit weights.
        bind_main_kernel(fit_);
    }
    pilot_finished_ = true;
}

void SequentialYieldRunner::bind_main_kernel(const ShiftFit& fit) {
    main_proposal_ = config_.mixture_proposal
                         ? fit.mixture
                         : process::ProposalMixture::single(fit.shift);
    main_arity_ = specs_.size() + 1 + (record_main_u_ ? dimension_ : 0);
    main_kernel_ = factory_(main_proposal_, record_main_u_);
}

bool SequentialYieldRunner::done() const {
    if (retired_samples_ == 0) return false;
    if (retired_samples_ >= config_.max_samples) return true;
    return target_met();
}

bool SequentialYieldRunner::target_met() const {
    // A weighted run with zero observed failures reports the clean-sweep
    // Wilson fallback CI, whose "conservative" argument assumes the shift
    // actually points at the failure region - a misaimed proposal that
    // undersamples failures must not early-certify on it. Keep sampling
    // until failure evidence (ess > 0) or the cap.
    return config_.target_half_width > 0.0 && retired_samples_ > 0 &&
           retired_samples_ >= config_.min_samples &&
           estimate_.half_width() <= config_.target_half_width &&
           (!estimate_.weighted || estimate_.ess > 0.0);
}

bool SequentialYieldRunner::submit_chunk() {
    const std::size_t left = config_.max_samples - std::min(submitted_samples_,
                                                            config_.max_samples);
    const std::size_t size = std::min(config_.chunk_samples, left);
    if (size == 0) return false;
    InflightChunk chunk{mc::McTicket{}, size, rng_};
    mc::McConfig cfg;
    cfg.samples = size;
    chunk.ticket = mc::submit_monte_carlo(engine_, cfg, rng_, main_kernel_);
    tickets_.push_back(std::move(chunk));
    submitted_samples_ += size;
    return true;
}

bool SequentialYieldRunner::retire_chunk() {
    if (tickets_.empty()) return false;
    InflightChunk chunk = std::move(tickets_.front());
    tickets_.pop_front();
    fold_rows(mc::wait_monte_carlo(engine_, std::move(chunk.ticket)));
    maybe_refit();
    return true;
}

void SequentialYieldRunner::fold_rows(const mc::McResult& result) {
    const std::size_t first = flags_.size();
    append_flags_and_weights(result.rows, specs_, main_arity_, flags_,
                             log_weights_);
    if (record_main_u_) {
        // Accumulate the failing records (with their exact per-proposal log
        // weights) for the cross-entropy refit.
        for (std::size_t k = 0; k < result.rows.size(); ++k)
            if (!flags_[first + k]) fail_rows_.push_back(result.rows[k]);
    }
    retired_samples_ += result.rows.size();
    ++stage_chunks_;
    update_estimate();
    trajectory_.emplace_back(retired_samples_, estimate_.half_width());

    // Observational only: the ISLE-style per-chunk diagnostic stream -
    // sample count, fail-side ESS, weight concentration, CI half-width -
    // as trace events, plus the always-on chunk/sample counters.
    YieldMetrics& metrics = YieldMetrics::get();
    metrics.chunks.add();
    metrics.samples.add(result.rows.size());
    if (obs::Tracer::enabled())
        obs::Tracer::instant(
            "yield.chunk", "yield",
            {{"samples", static_cast<double>(retired_samples_)},
             {"ess", estimate_.ess},
             {"max_weight_share", estimate_.max_weight_share},
             {"half_width", estimate_.half_width()}});
}

void SequentialYieldRunner::update_estimate() {
    if (stages_.empty()) {
        estimate_ = weighted_yield_from_flags(flags_, log_weights_);
        return;
    }
    std::vector<WeightedYieldEstimate> all = stages_;
    all.push_back(weighted_yield_from_flags(flags_, log_weights_));
    estimate_ = combine_stage_estimates(all);
}

void SequentialYieldRunner::maybe_refit() {
    if (!record_main_u_ || refits_done_ >= config_.max_refits) return;
    if (stage_chunks_ < config_.refine_after_chunks) return;
    if (done()) return; // the stop decision wins over a refit
    if (fail_rows_.size() < config_.refit_min_failures) return;

    // Chunks in flight were drawn from the proposal being replaced: drain
    // them as discarded overshoot and rewind the RNG/submission state to
    // the retired prefix, so the post-refit stream - and with it the whole
    // run - depends only on folded chunks, never on the inflight window.
    rewind_inflight();

    fit_ = refit_shift(fail_rows_, specs_, dimension_, config_.shift_fit);
    bind_main_kernel(fit_);

    // Close the current stage: its samples were drawn from the old
    // proposal, so its estimate is combined per-stage with the stages to
    // come (never re-pooled under the new proposal's weights).
    stages_.push_back(weighted_yield_from_flags(flags_, log_weights_));
    flags_.clear();
    log_weights_.clear();
    stage_chunks_ = 0;
    ++refits_done_;
    YieldMetrics::get().refits.add();
    if (obs::Tracer::enabled())
        obs::Tracer::instant(
            "yield.refit", "yield",
            {{"refit", static_cast<double>(refits_done_)},
             {"fail_rows", static_cast<double>(fail_rows_.size())},
             {"retired_samples", static_cast<double>(retired_samples_)}});
}

void SequentialYieldRunner::rewind_inflight() {
    if (tickets_.empty()) return;
    rng_ = tickets_.front().rng_before;
    const std::size_t drained = drain_overshoot();
    submitted_samples_ -= std::min(drained, submitted_samples_);
}

std::size_t SequentialYieldRunner::drain_overshoot() {
    std::size_t drained = 0;
    while (!tickets_.empty()) {
        InflightChunk chunk = std::move(tickets_.front());
        tickets_.pop_front();
        (void)mc::wait_monte_carlo(engine_, std::move(chunk.ticket));
        drained += chunk.samples;
    }
    discarded_samples_ += drained;
    return drained;
}

SequentialYieldResult SequentialYieldRunner::finish() {
    // Drain the overshoot: chunks submitted past the stop decision stay out
    // of the estimate so the result is identical for any inflight window.
    (void)drain_overshoot();
    SequentialYieldResult result;
    result.estimate = estimate_;
    result.pilot = pilot_estimate_;
    result.shift = fit_.shift;
    result.proposal = main_proposal_;
    result.stage_estimates = stages_;
    if (!flags_.empty())
        result.stage_estimates.push_back(
            weighted_yield_from_flags(flags_, log_weights_));
    result.refinements = refits_done_;
    result.shift_pilot_failures = pilot_failures_;
    result.samples_used = retired_samples_;
    result.pilot_samples = pilot_submitted_ ? config_.pilot_samples : 0;
    result.discarded_samples = discarded_samples_;
    result.reached_target = target_met();
    result.trajectory = std::move(trajectory_);
    return result;
}

void SequentialYieldRunner::drive(std::span<SequentialYieldRunner> runners) {
    // Pilots streamed together: every pilot is in flight before the first
    // is waited on, so they overlap on the engine's pool.
    for (SequentialYieldRunner& r : runners) r.submit_pilot();
    for (SequentialYieldRunner& r : runners) r.finish_pilot();

    // Main stage, round-robin: keep each unfinished runner's window full,
    // retire one chunk per runner per sweep. Each runner's folded estimate
    // is window-invariant (overshoot drains, never folds), so the sweep
    // order affects only overlap, never results.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (SequentialYieldRunner& r : runners) {
            if (r.done()) continue;
            while (r.tickets_.size() < r.config_.inflight && r.submit_chunk()) {
            }
        }
        for (SequentialYieldRunner& r : runners) {
            if (r.done()) continue;
            if (r.retire_chunk()) progressed = true;
            if (r.done()) (void)r.drain_overshoot();
        }
    }
}

SequentialYieldResult SequentialYieldRunner::run() {
    drive(std::span(this, 1));
    return finish();
}

std::vector<SequentialYieldResult>
run_yield_points(eval::Engine& engine, const SequentialConfig& config,
                 const std::vector<YieldPoint>& points, Rng rng) {
    std::vector<SequentialYieldRunner> runners;
    runners.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        runners.emplace_back(engine, config, points[i].specs, points[i].factory,
                             points[i].dimension, rng.child(i + 1));
    SequentialYieldRunner::drive(runners);

    std::vector<SequentialYieldResult> results;
    results.reserve(runners.size());
    for (SequentialYieldRunner& r : runners) results.push_back(r.finish());
    return results;
}

} // namespace ypm::yield
