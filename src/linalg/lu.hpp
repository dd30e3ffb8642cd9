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
/// normal double range (underflow / overflow / non-finite). The elimination
/// arithmetic is the textbook one, operation for operation; the reference
/// LU in tests/support pins both properties bit-for-bit.
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
