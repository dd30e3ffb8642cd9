#pragma once
/// \file row_block.hpp
/// \brief Flat rows of equal length: the value type of Monte Carlo samples.
///
/// A sample batch carries one row of doubles per sample - performances,
/// then whatever columns the kernel appends (a log weight, a u record).
/// Every row of a batch has the same length, so the rows live back to back
/// in one vector: row i is values[i * arity, (i + 1) * arity). A kernel
/// builds one block per chunk, the engine joins a batch's chunks, and the
/// yield folds read rows as spans - no sample owns a heap object.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace ypm::eval {

class RowBlock {
public:
    /// An empty block whose first appended row fixes the arity.
    RowBlock() = default;
    /// An empty block of rows with `arity` values each.
    explicit RowBlock(std::size_t arity) : arity_(arity) {}
    /// `rows` zero-filled rows with `arity` values each.
    RowBlock(std::size_t arity, std::size_t rows)
        : values_(arity * rows), arity_(arity) {}
    /// A block of the listed rows. \throws ypm::InvalidInputError when the
    /// rows differ in length or a row is empty.
    RowBlock(std::initializer_list<std::initializer_list<double>> rows);

    /// Rows in the block.
    [[nodiscard]] std::size_t size() const {
        return arity_ == 0 ? 0 : values_.size() / arity_;
    }
    [[nodiscard]] bool empty() const { return values_.empty(); }
    /// Values per row (0 until the first row of a default-built block).
    [[nodiscard]] std::size_t arity() const { return arity_; }

    [[nodiscard]] std::span<const double> row(std::size_t i) const {
        return std::span<const double>(values_).subspan(i * arity_, arity_);
    }
    [[nodiscard]] std::span<double> row(std::size_t i) {
        return std::span<double>(values_).subspan(i * arity_, arity_);
    }
    /// Every value, row after row.
    [[nodiscard]] std::span<const double> values() const { return values_; }
    [[nodiscard]] std::span<double> values() { return values_; }

    /// Make room for `rows` more rows without reallocating.
    void reserve(std::size_t rows) {
        values_.reserve(values_.size() + rows * arity_);
    }

    /// Append one zero-filled row and return it for the caller to fill.
    /// \throws ypm::InvalidInputError when the arity is still 0.
    std::span<double> append_row();

    /// Append a copy of `row`; the first row of a default-built block fixes
    /// the arity. \throws ypm::InvalidInputError on a row of another length
    /// or an empty row.
    void push_back(std::span<const double> row);
    void push_back(std::initializer_list<double> row) {
        push_back(std::span<const double>(row.begin(), row.size()));
    }

    /// Same arity and element-wise == values (IEEE, so a row holding a NaN
    /// never equals itself).
    [[nodiscard]] bool operator==(const RowBlock&) const = default;

private:
    std::vector<double> values_;
    std::size_t arity_ = 0;
};

} // namespace ypm::eval
