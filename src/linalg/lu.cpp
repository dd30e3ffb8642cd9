#include "linalg/lu.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace ypm::linalg {

namespace {

/// Cheap pivot weight: strictly monotone in |v| within normal double range.
inline double pivot_weight(double v) { return std::fabs(v); }
inline double pivot_weight(const std::complex<double>& v) {
    return v.real() * v.real() + v.imag() * v.imag();
}

/// Is a squared-magnitude column maximum trustworthy as an ordering? Only
/// while it stays a normal double (no underflow, overflow or NaN).
inline bool weight_reliable(double best) {
    return std::isfinite(best) && best >= std::numeric_limits<double>::min();
}

inline bool finite(double v) { return std::isfinite(v); }
inline bool finite(const std::complex<double>& v) {
    return std::isfinite(v.real()) && std::isfinite(v.imag());
}

/// acc - sum of row[j] * x[j] over [lo, hi), in order. With `skip_zeros`
/// (every x[j] finite, so 0 * x[j] is a signed zero) exact-zero row entries
/// are skipped; subtracting a zero leaves acc as it is unless acc is -0.
template <typename T>
T subtract_dot(T acc, const T* row, const std::vector<T>& x, std::size_t lo,
               std::size_t hi, bool skip_zeros) {
    for (std::size_t j = lo; j < hi; ++j)
        if (!skip_zeros || row[j] != T{}) acc -= row[j] * x[j];
    return acc;
}

} // namespace

template <typename T>
void InplaceLu<T>::factor(Matrix<T>& a) {
    const std::size_t n = a.rows();
    if (!a.square()) throw NumericalError("Lu: matrix must be square");
    perm_.resize(n);
    cols_.resize(n);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
    T* data = a.data().data();

    for (std::size_t k = 0; k < n; ++k) {
        // Fast pivot search on the cheap weight.
        std::size_t piv = k;
        double best = pivot_weight(data[k * n + k]);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double mag = pivot_weight(data[i * n + k]);
            if (mag > best) {
                best = mag;
                piv = i;
            }
        }
        if constexpr (!std::is_same_v<T, double>) {
            if (!weight_reliable(best)) {
                // Degenerate weights (underflow, overflow, NaN): redo the
                // column with exact std::abs comparisons, which also make
                // the singularity test exact.
                piv = k;
                double best_abs = std::abs(data[k * n + k]);
                for (std::size_t i = k + 1; i < n; ++i) {
                    const double mag = std::abs(data[i * n + k]);
                    if (mag > best_abs) {
                        best_abs = mag;
                        piv = i;
                    }
                }
                if (best_abs == 0.0 || !std::isfinite(best_abs))
                    throw NumericalError(
                        "Lu: singular or non-finite matrix at column " +
                        std::to_string(k));
            }
        } else {
            if (best == 0.0 || !std::isfinite(best))
                throw NumericalError(
                    "Lu: singular or non-finite matrix at column " +
                    std::to_string(k));
        }
        if (piv != k) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(data[k * n + j], data[piv * n + j]);
            std::swap(perm_[k], perm_[piv]);
        }

        const T pivot = data[k * n + k];
        const T* row_k = data + k * n;
        // The pivot row's nonzero columns: only these can change a row.
        std::size_t nnz = 0;
        for (std::size_t j = k + 1; j < n; ++j)
            if (row_k[j] != T{}) cols_[nnz++] = j;
        for (std::size_t i = k + 1; i < n; ++i) {
            T* row_i = data + i * n;
            if (row_i[k] == T{}) continue; // multiplier would be a zero
            const T factor = row_i[k] / pivot;
            row_i[k] = factor;
            if (factor == T{}) continue;
            if (nnz == n - k - 1 || !finite(factor)) {
                // Dense pivot row, or NaN / inf * 0 must still spread.
                for (std::size_t j = k + 1; j < n; ++j)
                    row_i[j] -= factor * row_k[j];
            } else {
                for (std::size_t c = 0; c < nnz; ++c)
                    row_i[cols_[c]] -= factor * row_k[cols_[c]];
            }
        }
    }
}

template <typename T>
void InplaceLu<T>::solve(const Matrix<T>& lu, const std::vector<T>& b,
                         std::vector<T>& x) const {
    const std::size_t n = lu.rows();
    if (b.size() != n || perm_.size() != n)
        throw NumericalError("InplaceLu::solve: size mismatch");
    const T* data = lu.data().data();

    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    // `finite_so_far`: every x[j] the next row reads is finite.
    bool finite_so_far = n == 0 || finite(x[0]);
    for (std::size_t i = 1; i < n; ++i) {
        x[i] = subtract_dot(x[i], data + i * n, x, 0, i, finite_so_far);
        finite_so_far = finite_so_far && finite(x[i]);
    }
    finite_so_far = true;
    for (std::size_t ii = n; ii-- > 0;) {
        const T* row = data + ii * n;
        x[ii] = subtract_dot(x[ii], row, x, ii + 1, n, finite_so_far) / row[ii];
        finite_so_far = finite_so_far && finite(x[ii]);
    }
}

template class InplaceLu<double>;
template class InplaceLu<std::complex<double>>;

} // namespace ypm::linalg
