#pragma once
/// \file shift.hpp
/// \brief Adaptive proposal fitting for importance-sampled yield.
///
/// Two fitting stages share one machinery:
///  - fit_shift: the ISLE-style pilot fit - a Monte Carlo chunk drawn from
///    a widened proposal locates the failure region(s) and each spec's
///    center of gravity of failing realisations becomes one component of a
///    *defensive mixture* (nominal + per-spec shifted components), the
///    standard cure for multi-spec problems whose failure regions are
///    disjoint and which a single mean shift cannot cover;
///  - refit_shift: the cross-entropy refinement - the same per-spec fit
///    over accumulated *main-stage* failing records, importance-weighted by
///    each record's exact likelihood ratio so the re-fitted means estimate
///    the nominal-density centers of gravity of the failure regions (the
///    CE-optimal mean for a Gaussian family with fixed covariance).

#include <cstddef>
#include <vector>

#include "eval/row_block.hpp"
#include "mc/yield.hpp"
#include "process/sampler.hpp"

namespace ypm::yield {

struct ShiftFitConfig {
    /// Clamp on the Euclidean norm of every fitted mean shift (in sigma
    /// units) - each per-spec component *and* the combined single shift.
    /// Pilot chunks drawn from a widened proposal find failures farther out
    /// than the dominant failure boundary; the clamp keeps the main-stage
    /// proposal from overshooting into weight collapse. 0 disables.
    double max_norm = 4.0;
    /// Mixture weight of the nominal (zero-shift) defensive component, in
    /// [0, 1); the remaining mass is split over the per-spec components in
    /// proportion to their (weighted) failure mass. The nominal component
    /// bounds the likelihood ratios near the bulk of the distribution, the
    /// defensive-IS guarantee. 0 drops the nominal component entirely.
    /// \throws ypm::InvalidInputError from the fit when outside [0, 1).
    double defensive_weight = 0.1;
    /// Scale adaptation (CE refit only): when true, refit_shift also learns
    /// each component's *diagonal* variance from the importance-weighted
    /// failing records - sigma_d^2 = sum(w (u_d - mu_d)^2) / sum(w) around
    /// the fitted mean - the CE-optimal diagonal covariance for a Gaussian
    /// family. Per-dimension sigmas are clamped to [min_scale, max_scale]
    /// (a single dominant record would otherwise collapse a sigma to ~0 and
    /// spike the weights); specs with fewer than two failing records keep
    /// the unit scale. The pilot fit (fit_shift) never adapts scales: its
    /// few unweighted failures carry no usable spread information.
    bool adapt_scale = false;
    /// Lower sigma clamp for adapted scales. Kept close to the unit scale:
    /// the weighted spread of a handful of failing records systematically
    /// *underestimates* the conditional variance, and an over-shrunk
    /// component spikes the fail-side weights of records landing in the
    /// other components' territory (measured on the bimodal OTA scenario:
    /// min_scale 0.5 costs ~20 % more samples-to-target than mean-only CE;
    /// 0.9 beats it). Values below 1 still allow a genuine, evidence-backed
    /// shrink.
    double min_scale = 0.9;
    double max_scale = 3.0; ///< upper sigma clamp for adapted scales
};

/// Fitted proposal for the main importance-sampling stage.
struct ShiftFit {
    /// Combined single shift: failure-mass-weighted average of the
    /// (clamped) per-spec centers of gravity, norm-clamped again. Empty mu
    /// when the fit saw no failures (the main stage then degenerates to
    /// plain MC). Kept for the legacy single-shift proposal mode and for
    /// reporting.
    process::SampleShift shift;
    /// Defensive mixture proposal: a nominal component (weight
    /// defensive_weight) plus one component per failing spec at that spec's
    /// clamped center of gravity. A single nominal component when the fit
    /// saw no failures.
    process::ProposalMixture mixture;
    /// Center of gravity of the samples failing spec s, norm-clamped.
    /// Every entry has a well-defined mu of size `dimension` (all zero for
    /// specs that never failed), so callers can index unconditionally.
    std::vector<process::SampleShift> per_spec;
    /// Samples failing spec s (raw counts, unweighted).
    std::vector<std::size_t> spec_failures;
    /// Samples failing any spec (raw count, unweighted).
    std::size_t pilot_failures = 0;
};

/// Pilot fit from rows of the form {perf_0..perf_{k-1}, log_weight,
/// u_0..u_{dim-1}} where k = specs.size() (the layout produced by a yield
/// kernel with u recording on). NaN performances count as failures - a
/// non-converging realisation is a failing die. The centers of gravity are
/// unweighted (ISLE): the widened pilot proposal is failure-agnostic, and
/// weighting its few failures by likelihood ratios would let one
/// near-nominal failure dominate the fit. \throws ypm::InvalidInputError
/// on arity mismatch or a bad config.
[[nodiscard]] ShiftFit fit_shift(const eval::RowBlock& pilot_rows,
                                 const std::vector<mc::Spec>& specs,
                                 std::size_t dimension,
                                 const ShiftFitConfig& config = {});

/// Cross-entropy refinement from accumulated main-stage records (same row
/// layout). Each failing row enters its spec's center of gravity with
/// weight exp(log_weight) - the exact likelihood ratio under the proposal
/// the row was drawn from - so records accumulated across *different*
/// proposals (earlier CE stages) combine into one unbiased estimate of the
/// nominal-density failure centers. Passing rows are ignored, so callers
/// may feed either the failing subset or everything. \throws
/// ypm::InvalidInputError on arity mismatch, a non-finite log weight or a
/// bad config.
[[nodiscard]] ShiftFit refit_shift(const eval::RowBlock& rows,
                                   const std::vector<mc::Spec>& specs,
                                   std::size_t dimension,
                                   const ShiftFitConfig& config = {});

} // namespace ypm::yield
