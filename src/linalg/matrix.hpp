#pragma once
/// \file matrix.hpp
/// \brief Dense row-major matrix used by the MNA kernel.
///
/// MNA systems in this project are small (the OTA testbench has 13
/// unknowns) and sparse (53 of its 169 AC entries are nonzero). They are
/// stored dense; the LU (lu.hpp) skips the exact zeros instead of keeping a
/// sparse structure, which measured 1.3-1.4x faster than dense elimination
/// on the OTA's AC systems, with the same pivots and the same bits. A
/// recorded-pivot sparse factorisation was measured and dropped: pivots
/// move with the operating point and the frequency. The template is
/// instantiated for double (DC) and std::complex<double> (AC).

#include <cassert>
#include <complex>
#include <cstddef>
#include <vector>

namespace ypm::linalg {

template <typename T>
class Matrix {
public:
    Matrix() = default;

    /// rows x cols matrix, zero-initialised.
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{}) {}

    /// Square n x n matrix, zero-initialised.
    explicit Matrix(std::size_t n) : Matrix(n, n) {}

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }
    [[nodiscard]] bool square() const { return rows_ == cols_; }

    [[nodiscard]] T& operator()(std::size_t i, std::size_t j) {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }
    [[nodiscard]] const T& operator()(std::size_t i, std::size_t j) const {
        assert(i < rows_ && j < cols_);
        return data_[i * cols_ + j];
    }

    /// Reset every entry to zero, keeping the shape (reused across Newton
    /// iterations to avoid reallocation).
    void set_zero() { std::fill(data_.begin(), data_.end(), T{}); }

    /// Raw storage (row major).
    [[nodiscard]] const std::vector<T>& data() const { return data_; }
    [[nodiscard]] std::vector<T>& data() { return data_; }

    /// Identity matrix of size n.
    [[nodiscard]] static Matrix identity(std::size_t n) {
        Matrix m(n);
        for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
        return m;
    }

    /// Matrix-vector product y = A * x.
    [[nodiscard]] std::vector<T> multiply(const std::vector<T>& x) const {
        assert(x.size() == cols_);
        std::vector<T> y(rows_, T{});
        for (std::size_t i = 0; i < rows_; ++i) {
            T acc{};
            const T* row = &data_[i * cols_];
            for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
            y[i] = acc;
        }
        return y;
    }

    /// Infinity norm (max absolute row sum).
    [[nodiscard]] double norm_inf() const {
        double best = 0.0;
        for (std::size_t i = 0; i < rows_; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < cols_; ++j) s += std::abs(data_[i * cols_ + j]);
            if (s > best) best = s;
        }
        return best;
    }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<std::complex<double>>;

} // namespace ypm::linalg
