#pragma once
/// \file weighted.hpp
/// \brief Importance-sampling yield estimator (unnormalized fail-side
///        form) with weighted CI and effective-sample-size diagnostics.
///
/// Plain Monte Carlo yield (mc::estimate_yield) is weakest exactly where the
/// paper needs it most: certifying "a yield of 100 %" - a 500/500 pass run
/// only proves yield >= 99.3 % at 95 % confidence. Importance sampling draws
/// the process realisations from a shifted proposal concentrated on the
/// failure region and re-weights each sample by the likelihood ratio
/// w_i = p_nominal(u_i) / p_proposal(u_i), cutting the variance of the
/// failure-probability estimate by orders of magnitude for rare specs.
///
/// This file owns the estimator. Because both densities are known exactly
/// (the likelihood ratio needs no unknown normalization constant), the
/// estimator is the *unnormalized fail-side* form:
///   phat_fail = (1/n) * sum(w_i * fail_i),    yhat = 1 - phat_fail.
/// This matters: a failure-directed mean shift makes the *passing* tail's
/// weights unbounded (w = exp(m^2/2 - m u) explodes as u -> -inf), so the
/// textbook self-normalized ratio sum(w f)/sum(w) is dominated by a few
/// huge pass-side weights and can be *worse* than plain MC. The fail-side
/// weights are the bounded ones by construction - exactly the samples the
/// rare-event estimate lives on - which is where the orders-of-magnitude
/// variance reduction comes from (ISLE does the same).
///
/// Diagnostics follow the estimator: the Kish effective sample size and the
/// max-weight share are computed over the fail-side weights (the effective
/// number of independent failure observations). When every log weight is
/// exactly zero (the zero-shift proposal) the estimate *and* the interval
/// reduce bit-identically to the unweighted mc::yield_from_flags / Wilson
/// path.
///
/// There is one reduction: FailSideMoments folds one sample at a time into
/// the fail-side moments, in sample order. weighted_yield_from_flags is a
/// loop over it, and the sequential runner keeps one per proposal stage and
/// folds each retired chunk into it, so a fold costs O(chunk) rather than a
/// re-reduction of the whole stage, with the same sums in the same order.
///
/// Caveat: a *simulation* failure (NaN performances) counts as a die
/// failure, per the repo-wide convention that convergence failures degrade
/// yield. A sim failure deep on the pass side of a shifted proposal
/// therefore injects its (large) pass-side weight into the fail-side sum -
/// conservative, never optimistic, and it shows up immediately as a
/// max_weight_share spike / ESS collapse. Capping such weights would bias
/// the estimator, so they are surfaced, not truncated.

#include <cstddef>
#include <span>
#include <vector>

#include "eval/row_block.hpp"
#include "mc/yield.hpp"

namespace ypm::yield {

/// Result of a (possibly weighted) yield estimation.
struct WeightedYieldEstimate {
    std::size_t samples = 0;
    std::size_t passes = 0; ///< raw (unweighted) pass count
    double yield = 0.0;     ///< 1 - weighted failure probability, in [0, 1]
    double ci_low = 0.0;    ///< 95 % interval: Wilson when unweighted,
    double ci_high = 0.0;   ///< asymptotic weighted-mean CI when weighted
    /// Effective number of independent failure observations: Kish
    /// (sum w)^2 / sum w^2 over the *failing* samples' weights. Equals the
    /// raw failure count under unit weights (and `samples` in the
    /// unweighted reduction, where every sample informs the Wilson
    /// interval directly); a collapse toward 0-1 flags an overdone shift.
    double ess = 0.0;
    /// Largest failing sample's share of the total fail-side weight, in
    /// [0, 1]; near 1 means one failure dominates the estimate.
    double max_weight_share = 0.0;
    /// False when every log weight was exactly 0 (plain MC reduction).
    bool weighted = false;
    /// Raw fail-side moments behind the estimate: sum of w_i*fail_i, sum of
    /// (w_i*fail_i)^2 and the largest single fail-side weight (the failure
    /// count, the failure count and 1/0 under unit weights). These are what
    /// combine_stage_estimates pools - per-stage estimates from different
    /// proposals are each exact under their own density, so their moments
    /// add, while re-weighting all samples under one proposal's formula
    /// would be wrong.
    double fail_weight_sum = 0.0;
    double fail_weight_sq_sum = 0.0;
    double fail_weight_max = 0.0;

    [[nodiscard]] double half_width() const {
        return 0.5 * (ci_high - ci_low);
    }
};

/// The running fail-side reduction behind every estimate in this file: n,
/// the raw pass count, sum(w_i * fail_i), sum((w_i * fail_i)^2), the largest
/// fail-side weight and whether any log weight was nonzero. Folding samples
/// one at a time, in any number of calls, gives the same bits as folding
/// them all at once.
class FailSideMoments {
public:
    /// Fold one sample. \throws ypm::InvalidInputError on a non-finite log
    /// weight.
    void add(bool pass, double log_weight);

    /// Fold yield-kernel rows (layout and throws: row_passes).
    void add_rows(const eval::RowBlock& rows,
                  const std::vector<mc::Spec>& specs, std::size_t arity);

    /// The estimate over every sample folded so far (the vacuous [0, 1]
    /// estimate before the first). All-zero log weights give the unweighted
    /// Wilson reduction. \throws ypm::NumericalError when the fail-side
    /// weight sum overflowed.
    [[nodiscard]] WeightedYieldEstimate estimate() const;

    [[nodiscard]] std::size_t samples() const { return samples_; }

private:
    std::size_t samples_ = 0;
    std::size_t passes_ = 0;
    double x_sum_ = 0.0;  ///< sum of w_i * fail_i
    double x2_sum_ = 0.0; ///< sum of (w_i * fail_i)^2
    double w_max_ = 0.0;  ///< largest fail-side weight
    bool any_weighted_ = false;
};

/// Estimate from per-sample pass flags and log likelihood ratios
/// (log_weights[i] = log of nominal density over proposal density at sample
/// i). Sizes must match; an empty log_weights vector means all-zero.
///
/// Degenerate-evidence fallbacks (weighted path): with zero observed
/// failures the delta-method CI would collapse to the point [1, 1], so the
/// clean-sweep Wilson interval is reported instead; with exactly *one*
/// observed failure the sample variance is estimated from a single nonzero
/// term and the delta-method CI can be spuriously tight, so the interval is
/// widened to [clamp(yield - hw), 1] with hw at least the one-failure
/// Wilson half-width - the CI only trusts the delta method once >= 2
/// fail-side samples are seen.
/// \throws ypm::InvalidInputError on size mismatch or non-finite log weight.
[[nodiscard]] WeightedYieldEstimate
weighted_yield_from_flags(const std::vector<bool>& pass,
                          const std::vector<double>& log_weights);

/// Combine per-stage estimates of the *same* failure probability drawn
/// from different proposal distributions (the cross-entropy refinement
/// loop closes a stage every time it re-fits the proposal). Each stage's
/// weights are exact under its own proposal, so the pooled fail-side
/// moments give an unbiased sample-count-weighted estimate; stages are
/// never re-pooled under one weight formula. Zero-sample stages are
/// skipped; a single surviving stage is returned unchanged (bit-identical
/// to no refinement), no stage at all returns the vacuous [0, 1] estimate.
/// The pooled CI carries the same degenerate-evidence fallbacks as
/// weighted_yield_from_flags; with adaptively-chosen stage lengths it is
/// approximate (the stage boundaries are data-dependent), which the
/// sequential driver accepts the same way it accepts adaptive stopping.
[[nodiscard]] WeightedYieldEstimate
combine_stage_estimates(const std::vector<WeightedYieldEstimate>& stages);

/// Estimate from a performance matrix whose rows carry the log weight as the
/// trailing column: row arity must be specs.size() + 1. A sample passes only
/// if every spec passes (NaN performances fail, preserving the convention
/// that convergence failures degrade yield).
[[nodiscard]] WeightedYieldEstimate
estimate_weighted_yield(const eval::RowBlock& rows,
                        const std::vector<mc::Spec>& specs);

/// The shared row convention of every yield kernel: columns are the spec
/// performances, then the log weight, then optional extra columns (a
/// pilot's u record). True when every spec passes (NaN fails).
/// \throws ypm::InvalidInputError when the row's size differs from `arity`
/// (pass specs.size() + 1 + extra columns).
[[nodiscard]] bool row_passes(std::span<const double> row,
                              const std::vector<mc::Spec>& specs,
                              std::size_t arity);

} // namespace ypm::yield
