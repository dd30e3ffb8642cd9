#pragma once
/// \file yield.hpp
/// \brief Parametric yield: specification checks over MC populations with a
///        binomial confidence interval (the paper verifies "a yield of
///        100%" with 500-sample MC runs; the CI quantifies what 500 samples
///        can actually claim).

#include <cstddef>
#include <string>
#include <vector>

#include "eval/row_block.hpp"

namespace ypm::mc {

/// 97.5th percentile of the standard normal: the z of every 95 % interval
/// in this repo (the Wilson interval and the weighted importance-sampling
/// estimator must stay at the same confidence level).
inline constexpr double kZ95 = 1.959963984540054;

/// Specification on one performance function.
struct Spec {
    enum class Kind { at_least, at_most, range };

    std::string name;
    Kind kind = Kind::at_least;
    double lo = 0.0; ///< bound for at_least; lower edge for range
    double hi = 0.0; ///< bound for at_most; upper edge for range

    [[nodiscard]] static Spec at_least(std::string name, double bound);
    [[nodiscard]] static Spec at_most(std::string name, double bound);
    [[nodiscard]] static Spec range(std::string name, double lo, double hi);

    /// Does a measured value satisfy this spec? NaN always fails.
    [[nodiscard]] bool pass(double value) const;
};

/// Result of a yield estimation.
struct YieldEstimate {
    std::size_t samples = 0;
    std::size_t passes = 0;
    double yield = 0.0;  ///< passes / samples
    double ci_low = 0.0; ///< 95 % Wilson score interval
    double ci_high = 0.0;
};

/// Yield from per-sample pass/fail flags.
[[nodiscard]] YieldEstimate yield_from_flags(const std::vector<bool>& pass);

/// Yield of a performance matrix (rows = samples, columns match specs);
/// a sample passes only if every spec passes. \throws
/// ypm::InvalidInputError when the row arity differs from the spec count.
[[nodiscard]] YieldEstimate estimate_yield(const eval::RowBlock& rows,
                                           const std::vector<Spec>& specs);

/// 95 % Wilson score interval for a binomial proportion. 0 samples return
/// the vacuous interval {0, 1}; the interval never collapses to a point (a
/// 0/n or n/n run still cannot claim exactly 0 % or 100 %).
/// \throws ypm::InvalidInputError when passes > samples.
[[nodiscard]] std::pair<double, double> wilson_interval(std::size_t passes,
                                                        std::size_t samples);

} // namespace ypm::mc
