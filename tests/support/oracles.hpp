#pragma once
/// \file oracles.hpp
/// \brief Reference implementations that tests and benches compare the
///        production paths against, bit for bit: the rebuild-per-point
///        circuit measurements, a textbook partial-pivot LU, the naive
///        Pareto filter, a std::mt19937_64-backed Rng and the two-pass
///        fail-side yield reduction. They live
///        in the ypm_test_support library rather than src/ because nothing
///        but a comparison runs them.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "circuits/filter.hpp"
#include "circuits/ota.hpp"
#include "linalg/matrix.hpp"
#include "moo/problem.hpp"
#include "process/sampler.hpp"

namespace ypm::testsupport {

/// OTA measurement on a freshly built testbench: build, apply the process
/// realisation (nullptr = nominal), DC operating point, an AC sweep that
/// re-records every device's stamp per frequency and solves with
/// ReferenceLu, Bode metrics. The per-point rebuild path that OtaPrototype
/// (and with it every OtaEvaluator measurement) must reproduce bit for bit.
[[nodiscard]] circuits::OtaPerformance
rebuild_measure(const circuits::OtaConfig& config,
                const circuits::OtaSizing& sizing,
                const process::Realization* realization = nullptr);

/// Filter measurement on a freshly built filter of the given OTA model
/// kind: the oracle of FilterPrototype / FilterEvaluator::measure.
[[nodiscard]] circuits::FilterPerformance
rebuild_measure(const circuits::FilterEvaluator& evaluator,
                const circuits::FilterSizing& sizing,
                circuits::OtaModelKind kind);

/// Textbook LU with row partial pivoting (P*A = L*U): copies the matrix,
/// picks pivots by std::abs, and keeps the permutation sign for the
/// determinant. The reference linalg::InplaceLu must match bit for bit.
template <typename T>
class ReferenceLu {
public:
    /// Factor a square matrix. \throws ypm::NumericalError if singular to
    /// working precision (or not square).
    explicit ReferenceLu(linalg::Matrix<T> a);

    /// Solve A x = b.
    [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

    /// Determinant (product of pivots with sign of permutation).
    [[nodiscard]] T determinant() const;

    /// Reciprocal of the pivot-growth conditioning heuristic:
    /// min |pivot| / max |pivot|. Near zero indicates ill-conditioning.
    [[nodiscard]] double pivot_ratio() const { return pivot_ratio_; }

private:
    linalg::Matrix<T> lu_;
    std::vector<std::size_t> perm_;
    int sign_ = 1;
    double pivot_ratio_ = 0.0;
};

extern template class ReferenceLu<double>;
extern template class ReferenceLu<std::complex<double>>;

/// Indices of the non-dominated points by the pairwise definition, O(n^2 m),
/// any objective count; failed (NaN) rows are skipped.
/// moo::pareto_front_indices_2d must return the same set.
[[nodiscard]] std::vector<std::size_t>
pareto_front_indices(const std::vector<std::vector<double>>& objectives,
                     const std::vector<moo::ObjectiveSpec>& specs);

/// Raw moments of a fail-side yield reduction, in the fields
/// yield::WeightedYieldEstimate reports them (under unit weights: the
/// failure count twice and 1/0).
struct ReferenceFailMoments {
    std::size_t samples = 0;
    std::size_t passes = 0;
    double x_sum = 0.0;
    double x2_sum = 0.0;
    double w_max = 0.0;
    bool weighted = false;
};

/// The fail-side reduction as weighted_yield_from_flags once wrote it: one
/// pass over all log weights (validate, detect a weighted run), then a
/// second summing exp(log weight) over the failing samples. An empty
/// log_weights means all zero. yield::FailSideMoments, which folds one
/// sample at a time, must give the same moments bit for bit.
/// \throws ypm::InvalidInputError on a non-finite log weight,
///         ypm::NumericalError when the weighted fail-side sum overflows.
[[nodiscard]] ReferenceFailMoments
reference_fail_moments(const std::vector<bool>& pass,
                       const std::vector<double>& log_weights);

/// ypm::Rng as it was on std::mt19937_64: the same SplitMix64 seeding,
/// stream derivation and draw methods over the std engine. ypm::Rng, on its
/// lazily seeded Mt19937_64, must produce the same streams bit for bit.
class ReferenceRng {
public:
    explicit ReferenceRng(std::uint64_t seed);

    [[nodiscard]] ReferenceRng child(std::uint64_t stream) const;
    [[nodiscard]] double uniform01();
    [[nodiscard]] double gauss();
    [[nodiscard]] std::size_t index(std::size_t n);
    [[nodiscard]] long long integer(long long lo, long long hi);
    [[nodiscard]] bool bernoulli(double p);
    [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);
    [[nodiscard]] std::mt19937_64& engine() { return engine_; }

private:
    std::uint64_t seed_;
    std::mt19937_64 engine_;
};

} // namespace ypm::testsupport
