#include "eval/row_block.hpp"

#include "util/error.hpp"

namespace ypm::eval {

RowBlock::RowBlock(std::initializer_list<std::initializer_list<double>> rows) {
    for (std::initializer_list<double> row : rows) push_back(row);
}

std::span<double> RowBlock::append_row() {
    if (arity_ == 0)
        throw InvalidInputError("RowBlock::append_row: arity is 0");
    values_.resize(values_.size() + arity_);
    return std::span<double>(values_).last(arity_);
}

void RowBlock::push_back(std::span<const double> row) {
    if (row.empty())
        throw InvalidInputError("RowBlock: rows must not be empty");
    if (arity_ == 0 && values_.empty()) arity_ = row.size();
    if (row.size() != arity_)
        throw InvalidInputError("RowBlock: row length differs from the arity");
    values_.insert(values_.end(), row.begin(), row.end());
}

} // namespace ypm::eval
