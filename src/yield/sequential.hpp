#pragma once
/// \file sequential.hpp
/// \brief Sequential importance-sampled yield estimation over the streaming
///        dispatch seam.
///
/// The driver runs an adaptive multi-stage recipe per design point:
///
///  1. pilot: a Monte Carlo chunk drawn from a *widened* proposal (scale > 1)
///     locates the failure region(s); yield::fit_shift turns the failing
///     realisations into a defensive mixture proposal (nominal + one
///     component per failing spec) or, in the legacy mode, a single
///     combined mean shift;
///  2. main: fixed-size chunks drawn from the fitted proposal stream
///     through eval::Engine::submit()/wait() as sample batches - reusing
///     the sample kernels and the warm PrototypePool - and the run stops
///     early once the 95 % confidence half-width of the weighted estimate
///     (the unnormalized fail-side form, see yield/weighted.hpp) reaches
///     the target;
///  3. optional cross-entropy refinement: every `refine_after_chunks`
///     retired chunks the proposal is re-fitted from the accumulated
///     main-stage failing records (yield::refit_shift) and a new stage
///     begins. Stages drawn from different proposals are combined
///     *per-stage* (yield::combine_stage_estimates pools their exact
///     fail-side moments); samples are never re-weighted under one
///     proposal's formula.
///
/// Each stage has one reduction, a yield::FailSideMoments that every
/// retired chunk is folded into: the calling thread's retire cost is
/// O(chunk), not a re-reduction of the stage, and the sums run in sample
/// order, so the estimate after each chunk is the one a single pass over
/// the stage's samples gives.
///
/// Determinism: every chunk's RNG streams derive from the runner's own Rng
/// in submission order, exactly as mc::submit_monte_carlo derives them, so
/// the retired estimate and samples_used are bit-identical for any inflight
/// window. Chunks submitted past a stop or refit decision are drained and
/// discarded, never folded; at a refit the runner additionally rewinds its
/// RNG and submission count to the retired prefix, so the post-refit stream
/// too depends only on folded chunks and never on the window. With a zero
/// shift and one chunk the sampled rows are bit-identical to
/// mc::run_monte_carlo.
///
/// run_yield_points() drives many design points through the same loop on
/// one engine - the certification stage of core::YieldFlow and the
/// optimiser-side yield::YieldProbe. Each point's estimate depends only on
/// its own RNG stream, so driving points together changes the overlap of
/// their chunks, never their results.

#include <cstddef>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "eval/engine.hpp"
#include "mc/monte_carlo.hpp"
#include "mc/yield.hpp"
#include "process/sampler.hpp"
#include "yield/shift.hpp"
#include "yield/weighted.hpp"

namespace ypm::yield {

/// Builds the chunk kernel for one proposal distribution (a defensive
/// mixture; the pilot and the legacy single-shift mode pass one-component
/// mixtures, whose draw path must be bit-identical to the plain
/// single-shift sampler). Rows must be {perf_0..perf_{k-1}, log_weight}
/// for k specs, plus the `dimension` standardized coordinates
/// u_0..u_{dim-1} appended when record_u is true (shift fitting and CE
/// refinement need them). Kernels are copied into the engine; anything
/// captured by reference must outlive the run.
using KernelFactory = std::function<mc::ChunkSampleFn(
    const process::ProposalMixture&, bool record_u)>;

struct SequentialConfig {
    std::size_t pilot_samples = 128; ///< 0 disables the pilot (zero shift)
    double pilot_scale = 2.0;        ///< widened pilot proposal (sigma units)
    std::size_t chunk_samples = 64;  ///< main-stage chunk size
    std::size_t max_samples = 4096;  ///< main-stage cap (excludes the pilot)
    std::size_t min_samples = 128;   ///< floor before early stop is allowed;
                                     ///< must be <= max_samples
    /// Stop once the 95 % CI half-width of the estimate is <= this target;
    /// 0 runs to max_samples unconditionally.
    double target_half_width = 0.0;
    /// Chunks submitted ahead of retirement (>= 1). 1 is the blocking path;
    /// larger windows overlap chunk evaluation with the stop decision. The
    /// window never changes the estimate (see file comment), only the
    /// overshoot.
    std::size_t inflight = 2;
    /// Main-stage proposal family: the defensive mixture fitted by the
    /// pilot (default - covers disjoint multi-spec failure regions) or the
    /// legacy single combined mean shift (ISLE).
    bool mixture_proposal = true;
    /// Cross-entropy refinement period, in retired main-stage chunks; 0
    /// disables refinement. When enabled the main kernels record u (the
    /// rows grow by `dimension` columns) and every failing record is
    /// accumulated for refit_shift.
    std::size_t refine_after_chunks = 0;
    std::size_t max_refits = 1; ///< refinement rounds allowed per run
    /// A refit without evidence would aim the proposal at noise: skip the
    /// refinement until at least this many failing records accumulated.
    std::size_t refit_min_failures = 8;
    /// Scale adaptation (CE refit only): the refit also learns each
    /// component's diagonal variance from the importance-weighted failing
    /// records, clamped to [0.9, 3] sigma; specs with fewer than two failing
    /// records keep the unit scale (yield::refit_shift).
    bool adapt_scale = false;
    /// Warm-start seam: a pre-fitted main-stage proposal (e.g. carried over
    /// from an earlier generation's probe at a nearby design point). Empty
    /// components - the default - leave the seam unset. When set, the run
    /// must not also configure a pilot (pilot_samples > 0): the runner ctor
    /// throws on the ambiguous combination rather than letting one silently
    /// override the other. With pilot_samples == 0 the proposal is bound
    /// directly as the main-stage proposal (exact importance weights come
    /// from the kernel as usual, so a stale warm proposal costs variance,
    /// never bias).
    process::ProposalMixture initial_proposal;
};

/// The config's own invariants, checked by every SequentialYieldRunner (and
/// by core::YieldFlow before its GA, so a bad config fails before the
/// expensive stages). \throws ypm::InvalidInputError on zero chunk/max
/// samples, a non-positive pilot_scale, min_samples > max_samples (which
/// would silently make the early stop unreachable and burn the full cap on
/// every run), or a warm-start proposal alongside a pilot.
void validate_sequential_config(const SequentialConfig& config);

/// Result of one sequential run.
struct SequentialYieldResult {
    WeightedYieldEstimate estimate; ///< main-stage estimate (per-stage
                                    ///< combination when CE refinement ran)
    WeightedYieldEstimate pilot;    ///< pilot diagnostic (weighted: the pilot
                                    ///< proposal is widened, not nominal)
    process::SampleShift shift;     ///< combined single shift of the last fit
    process::ProposalMixture proposal; ///< final main-stage proposal
    /// One estimate per proposal stage (a single entry when no refinement
    /// ran). The `estimate` above is their combination.
    std::vector<WeightedYieldEstimate> stage_estimates;
    std::size_t refinements = 0;    ///< CE refits actually applied
    std::size_t shift_pilot_failures = 0; ///< failing pilot samples behind the fit
    std::size_t samples_used = 0;   ///< main-stage samples in the estimate
    std::size_t pilot_samples = 0;
    std::size_t discarded_samples = 0; ///< drained overshoot past stop/refit
    bool reached_target = false;
    /// (cumulative samples, CI half-width) after each retired chunk - the
    /// convergence trajectory the bench artifact plots.
    std::vector<std::pair<std::size_t, double>> trajectory;
};

/// One design point of a multi-point yield campaign.
struct YieldPoint {
    std::vector<mc::Spec> specs;
    KernelFactory factory;
    std::size_t dimension = 0;
};

/// Estimate every point's yield on one engine through the runner's drive
/// loop (pilots together, then round-robin windows). Point i runs on
/// rng.child(i + 1), so each result is bit-identical to
/// SequentialYieldRunner(engine, config, ..., rng.child(i + 1)).run() for
/// any inflight window.
[[nodiscard]] std::vector<SequentialYieldResult>
run_yield_points(eval::Engine& engine, const SequentialConfig& config,
                 const std::vector<YieldPoint>& points, Rng rng);

/// Streams one design point's yield estimation through a shared engine.
/// Single-threaded driver (the engine parallelises the chunks underneath).
class SequentialYieldRunner {
public:
    /// \param dimension standardized process-space dimension of the kernel's
    ///        u record (process::SampleShift::dimension of the device count).
    /// \throws ypm::InvalidInputError on an empty spec list, a null factory,
    ///         or a config validate_sequential_config() rejects.
    SequentialYieldRunner(eval::Engine& engine, SequentialConfig config,
                          std::vector<mc::Spec> specs, KernelFactory factory,
                          std::size_t dimension, Rng rng);

    /// Run to completion: pilot, then main-stage chunks with
    /// config.inflight chunks in the air until the early stop or the cap.
    [[nodiscard]] SequentialYieldResult run();

private:
    struct InflightChunk {
        mc::McTicket ticket;
        std::size_t samples = 0;
        Rng rng_before; ///< runner RNG state before this submission - a
                        ///< refit rewinds to the oldest drained chunk's
                        ///< state so the post-refit stream is
                        ///< window-invariant
    };

    /// The one drive loop, shared by run() and run_yield_points(): pilots
    /// streamed together, then round-robin sweeps that keep every
    /// unfinished runner's inflight window full and retire one chunk per
    /// runner per sweep. A runner stops folding the moment it is done and
    /// drains its overshoot; results are then built by finish().
    static void drive(std::span<SequentialYieldRunner> runners);
    friend std::vector<SequentialYieldResult>
    run_yield_points(eval::Engine& engine, const SequentialConfig& config,
                     const std::vector<YieldPoint>& points, Rng rng);

    /// Pilot stage: submit_pilot() enqueues the pilot chunk (no-op when
    /// pilot_samples == 0); finish_pilot() blocks on it and binds the
    /// main-stage proposal.
    void submit_pilot();
    void finish_pilot();
    /// True once the run should stop: early stop met or max_samples retired.
    [[nodiscard]] bool done() const;
    /// Enqueue the next main-stage chunk; false once max_samples is in
    /// flight.
    bool submit_chunk();
    /// Block on the oldest in-flight chunk and fold it (may trigger a CE
    /// refit); false when nothing is in flight.
    bool retire_chunk();
    /// Block on every in-flight chunk without folding it (discarded
    /// overshoot); returns the samples drained.
    std::size_t drain_overshoot();
    /// Drain any remaining overshoot and build the result.
    [[nodiscard]] SequentialYieldResult finish();

    void bind_main_kernel(const ShiftFit& fit);
    /// Fold one retired chunk into the open stage: O(chunk), the stage's
    /// earlier samples are never revisited.
    void fold_rows(const mc::McResult& result);
    /// CE refinement trigger, checked after each fold.
    void maybe_refit();
    /// Drain all in-flight chunks and rewind rng/submission state to the
    /// retired prefix (refit path - the run continues afterwards).
    void rewind_inflight();
    void update_estimate();
    /// The single early-stop criterion, shared by done() and the
    /// reached_target report so the two can never drift apart.
    [[nodiscard]] bool target_met() const;

    eval::Engine& engine_;
    SequentialConfig config_;
    std::vector<mc::Spec> specs_;
    KernelFactory factory_;
    std::size_t dimension_;
    Rng rng_;

    bool pilot_submitted_ = false;
    bool pilot_finished_ = false;
    mc::McTicket pilot_ticket_;
    WeightedYieldEstimate pilot_estimate_;
    ShiftFit fit_;
    std::size_t pilot_failures_ = 0;

    mc::ChunkSampleFn main_kernel_;
    process::ProposalMixture main_proposal_;
    bool record_main_u_ = false;
    std::size_t main_arity_ = 0;
    std::deque<InflightChunk> tickets_; ///< in-flight
    std::size_t submitted_samples_ = 0;
    std::size_t retired_samples_ = 0;
    std::size_t discarded_samples_ = 0;
    FailSideMoments stage_; ///< the open stage's samples, folded per chunk
    std::size_t stage_chunks_ = 0;
    /// One estimate per CE stage; the back is the open stage's, refreshed
    /// after each fold.
    std::vector<WeightedYieldEstimate> stages_;
    eval::RowBlock fail_rows_; ///< failing u records (CE)
    std::size_t refits_done_ = 0;
    WeightedYieldEstimate estimate_;
    std::vector<std::pair<std::size_t, double>> trajectory_;
};

} // namespace ypm::yield
