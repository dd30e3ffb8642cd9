#pragma once
/// \file lu.hpp
/// \brief Partial-pivot LU factorisation and linear solves for the MNA
///        kernel (real for DC Newton iterations, complex for AC sweeps).

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace ypm::linalg {

/// LU factorisation with row partial pivoting (P*A = L*U), in place and
/// allocation-free for repeated solves at a fixed system size (the batch
/// kernels factor thousands of same-shape MNA matrices). factor()
/// overwrites the caller's matrix with the packed LU - no copy - and
/// solve() reuses internal scratch, so the steady state performs zero
/// allocations per point.
///
/// Pivot selection: real magnitudes compare with fabs; complex magnitudes
/// compare *squared* (strictly monotone in |.|, so the argmax matches
/// std::abs comparisons unless two magnitudes coincide below one ulp),
/// falling back to std::abs for any column whose squared maximum leaves the
/// normal double range (underflow / overflow / non-finite). Every column is
/// searched in full, so the pivots, ties and singularity errors are the
/// textbook LU's.
///
/// Exact zeros are skipped: a row whose column-k entry is zero is neither
/// divided nor updated, the other rows are updated only over the pivot
/// row's nonzero columns, and substitution skips zero L and U entries. On
/// an MNA matrix (53 of the OTA's 169 AC entries are nonzero) that is most
/// of the work. It changes no value, by this argument:
///  - with partial pivoting every multiplier has magnitude <= 1, so for
///    finite input f * 0 is a signed zero, and x - (+-0) == x bit for bit
///    unless x is -0;
///  - an input without -0 never produces a -0 entry: +0 + v, x - x and a
///    subtraction of a signed zero from +0 all give +0. MNA stamps start
///    from +0 and only add, so the OTA's systems hold no -0 anywhere.
/// Contract: for input free of -0 the solution equals the textbook LU's
/// (tests/support ReferenceLu) byte for byte; with -0 entries it compares
/// equal with ==, but a zero's sign may differ. NaN and inf propagate
/// exactly as in the textbook LU: a non-finite multiplier updates its whole
/// row, and once a solution entry is non-finite the substitution stops
/// skipping zeros (0 * inf is NaN).
template <typename T>
class InplaceLu {
public:
    /// Factor `a` in place (it becomes the packed LU).
    /// \throws ypm::NumericalError if `a` is not square, or singular or
    /// non-finite to working precision.
    void factor(Matrix<T>& a);

    /// Solve LU x = b with the matrix last passed to factor(). `b` is left
    /// untouched; the substitution runs directly in `x` (resized, reused).
    /// \throws ypm::NumericalError on a size mismatch.
    void solve(const Matrix<T>& lu, const std::vector<T>& b,
               std::vector<T>& x) const;

private:
    std::vector<std::size_t> perm_;
    std::vector<std::size_t> cols_; ///< factor() scratch: nonzero columns
};

extern template class InplaceLu<double>;
extern template class InplaceLu<std::complex<double>>;

/// One-shot convenience: solve A x = b.
/// \throws ypm::NumericalError if A is singular.
template <typename T>
[[nodiscard]] std::vector<T> solve(Matrix<T> a, const std::vector<T>& b) {
    InplaceLu<T> lu;
    lu.factor(a);
    std::vector<T> x;
    lu.solve(a, b, x);
    return x;
}

} // namespace ypm::linalg
