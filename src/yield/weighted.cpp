#include "yield/weighted.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ypm::yield {

namespace {

/// The unweighted estimate from pooled counts: identical numbers to
/// mc::yield_from_flags over a population with these counts. Shared by the
/// flag-level reduction and combine_stage_estimates' all-unweighted branch.
WeightedYieldEstimate unweighted_from_counts(std::size_t samples,
                                             std::size_t passes) {
    WeightedYieldEstimate e;
    e.samples = samples;
    e.passes = passes;
    e.yield = samples > 0 ? static_cast<double>(passes) /
                                static_cast<double>(samples)
                          : 0.0;
    const auto [lo, hi] = mc::wilson_interval(passes, samples);
    e.ci_low = lo;
    e.ci_high = hi;
    e.ess = static_cast<double>(samples);
    const std::size_t fails = samples - passes;
    e.max_weight_share = fails > 0 ? 1.0 / static_cast<double>(fails) : 0.0;
    e.weighted = false;
    e.fail_weight_sum = static_cast<double>(fails);
    e.fail_weight_sq_sum = static_cast<double>(fails);
    e.fail_weight_max = fails > 0 ? 1.0 : 0.0;
    return e;
}

/// The weighted estimator from pooled fail-side moments - shared by the
/// single-run path (FailSideMoments::estimate) and the per-stage
/// combination (combine_stage_estimates), so their CI and fallback
/// behaviour can never drift apart.
WeightedYieldEstimate weighted_from_moments(std::size_t n, std::size_t passes,
                                            double x_sum, double x2_sum,
                                            double w_max) {
    WeightedYieldEstimate e;
    e.samples = n;
    e.passes = passes;
    e.weighted = true;
    e.fail_weight_sum = x_sum;
    e.fail_weight_sq_sum = x2_sum;
    e.fail_weight_max = w_max;
    const double nd = static_cast<double>(n);
    const double p_fail = x_sum / nd;
    e.yield = std::clamp(1.0 - p_fail, 0.0, 1.0);
    e.ess = x2_sum > 0.0 ? x_sum * x_sum / x2_sum : 0.0;
    e.max_weight_share = x_sum > 0.0 ? w_max / x_sum : 0.0;

    // No observed failures: the sample variance is 0 and the delta-method
    // CI would collapse to the point [1, 1] - certifying exactly 100 %
    // yield on *absence* of evidence, which even plain MC's Wilson bound
    // refuses to do. Report the clean-sweep Wilson interval instead: n
    // draws from a failure-directed proposal with no failures are at least
    // as strong evidence as n nominal draws, so the nominal n/n bound is
    // conservative. The zero ESS still flags the estimate as untrustworthy.
    if (x_sum == 0.0) {
        const auto [lo, hi] = mc::wilson_interval(n, n);
        e.ci_low = lo;
        e.ci_high = hi;
        return e;
    }

    if (n <= 1) {
        e.ci_low = 0.0;
        e.ci_high = 1.0;
        return e;
    }

    // Standard error of the sample mean of x_i = w_i * fail_i. The pass
    // samples contribute x_i = 0, so the moments above are complete.
    const double var =
        std::max(0.0, (x2_sum - x_sum * x_sum / nd) / (nd - 1.0));
    const double hw = mc::kZ95 * std::sqrt(var / nd);

    // Exactly one observed failure: the sample variance rests on a single
    // nonzero term and the delta-method half-width can be spuriously tight
    // (a lucky small-weight failure would certify a bound the sampling
    // never supported). Mirror the zero-failure fallback: widen to at
    // least the one-failure Wilson half-width and keep the upper edge at 1
    // until a second fail-side sample is seen.
    const std::size_t fails = n - passes;
    if (fails == 1) {
        const auto [lo, hi] = mc::wilson_interval(n - 1, n);
        const double wide = std::max(hw, 0.5 * (hi - lo));
        e.ci_low = std::clamp(e.yield - wide, 0.0, 1.0);
        e.ci_high = 1.0;
        return e;
    }

    e.ci_low = std::clamp(e.yield - hw, 0.0, 1.0);
    e.ci_high = std::clamp(e.yield + hw, 0.0, 1.0);
    return e;
}

} // namespace

void FailSideMoments::add(bool pass, double log_weight) {
    if (!std::isfinite(log_weight))
        throw InvalidInputError("FailSideMoments: non-finite log weight");
    ++samples_;
    if (log_weight != 0.0) any_weighted_ = true;
    if (pass) {
        ++passes_;
        return;
    }
    // Unnormalized fail-side estimator (see header): the likelihood ratio
    // is exact, so E_q[w * fail] is the true failure probability and only
    // the failing samples' (bounded) weights enter the estimate. The
    // pass-side weights - unbounded under a failure-directed shift - never
    // touch the sums.
    const double w = std::exp(log_weight);
    x_sum_ += w;
    x2_sum_ += w * w;
    w_max_ = std::max(w_max_, w);
}

void FailSideMoments::add_rows(const eval::RowBlock& rows,
                               const std::vector<mc::Spec>& specs,
                               std::size_t arity) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::span<const double> row = rows.row(i);
        add(row_passes(row, specs, arity), row[specs.size()]);
    }
}

WeightedYieldEstimate FailSideMoments::estimate() const {
    if (!any_weighted_) return unweighted_from_counts(samples_, passes_);
    if (!std::isfinite(x_sum_))
        throw NumericalError(
            "FailSideMoments: fail-side weight overflow (shift points away "
            "from the failure region?)");
    return weighted_from_moments(samples_, passes_, x_sum_, x2_sum_, w_max_);
}

WeightedYieldEstimate
weighted_yield_from_flags(const std::vector<bool>& pass,
                          const std::vector<double>& log_weights) {
    if (!log_weights.empty() && log_weights.size() != pass.size())
        throw InvalidInputError(
            "weighted_yield_from_flags: flag/weight size mismatch");
    FailSideMoments moments;
    for (std::size_t i = 0; i < pass.size(); ++i)
        moments.add(pass[i], log_weights.empty() ? 0.0 : log_weights[i]);
    return moments.estimate();
}

WeightedYieldEstimate
combine_stage_estimates(const std::vector<WeightedYieldEstimate>& stages) {
    std::vector<const WeightedYieldEstimate*> live;
    live.reserve(stages.size());
    for (const WeightedYieldEstimate& s : stages)
        if (s.samples > 0) live.push_back(&s);
    if (live.empty()) return FailSideMoments{}.estimate();
    if (live.size() == 1) return *live.front();

    std::size_t n = 0, passes = 0;
    double x_sum = 0.0, x2_sum = 0.0, w_max = 0.0;
    bool any_weighted = false;
    for (const WeightedYieldEstimate* s : live) {
        n += s->samples;
        passes += s->passes;
        x_sum += s->fail_weight_sum;
        x2_sum += s->fail_weight_sq_sum;
        w_max = std::max(w_max, s->fail_weight_max);
        any_weighted = any_weighted || s->weighted;
    }

    // Every stage unweighted: the pooled data is one plain MC population,
    // so report the pooled Wilson numbers (identical to concatenating the
    // flags) instead of pretending a weighted estimate.
    if (!any_weighted) return unweighted_from_counts(n, passes);

    return weighted_from_moments(n, passes, x_sum, x2_sum, w_max);
}

bool row_passes(std::span<const double> row,
                const std::vector<mc::Spec>& specs, std::size_t arity) {
    if (row.size() != arity)
        throw InvalidInputError(
            "yield kernel row arity mismatch (expected the spec "
            "performances followed by the log-weight column)");
    for (std::size_t c = 0; c < specs.size(); ++c)
        if (!specs[c].pass(row[c])) return false;
    return true;
}

WeightedYieldEstimate
estimate_weighted_yield(const eval::RowBlock& rows,
                        const std::vector<mc::Spec>& specs) {
    FailSideMoments moments;
    moments.add_rows(rows, specs, specs.size() + 1);
    return moments.estimate();
}

} // namespace ypm::yield
