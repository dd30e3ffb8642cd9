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
///
/// Both clamp every fitted mean to a 4-sigma norm and give the nominal
/// defensive component weight 0.1 (the constants and their reasons are in
/// shift.cpp).

#include <cstddef>
#include <vector>

#include "eval/row_block.hpp"
#include "mc/yield.hpp"
#include "process/sampler.hpp"

namespace ypm::yield {

/// Fitted proposal for the main importance-sampling stage.
struct ShiftFit {
    /// Combined single shift: failure-mass-weighted average of the
    /// (clamped) per-spec centers of gravity, norm-clamped again. Empty mu
    /// when the fit saw no failures (the main stage then degenerates to
    /// plain MC). Kept for the legacy single-shift proposal mode and for
    /// reporting.
    process::SampleShift shift;
    /// Defensive mixture proposal: a nominal component (weight 0.1) plus
    /// one component per failing spec at that spec's clamped center of
    /// gravity. A single nominal component when the fit saw no failures.
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
/// near-nominal failure dominate the fit. Scales are never adapted: the
/// few unweighted failures carry no usable spread information.
/// \throws ypm::InvalidInputError on arity mismatch.
[[nodiscard]] ShiftFit fit_shift(const eval::RowBlock& pilot_rows,
                                 const std::vector<mc::Spec>& specs,
                                 std::size_t dimension);

/// Cross-entropy refinement from accumulated main-stage records (same row
/// layout). Each failing row enters its spec's center of gravity with
/// weight exp(log_weight) - the exact likelihood ratio under the proposal
/// the row was drawn from - so records accumulated across *different*
/// proposals (earlier CE stages) combine into one unbiased estimate of the
/// nominal-density failure centers. Passing rows are ignored, so callers
/// may feed either the failing subset or everything. With `adapt_scale`
/// each component also gets a diagonal sigma learnt from its weighted
/// failing records (SequentialConfig::adapt_scale). \throws
/// ypm::InvalidInputError on arity mismatch or a non-finite log weight.
[[nodiscard]] ShiftFit refit_shift(const eval::RowBlock& rows,
                                   const std::vector<mc::Spec>& specs,
                                   std::size_t dimension, bool adapt_scale);

} // namespace ypm::yield
