#pragma once
/// \file stamper.hpp
/// \brief Real MNA stamping interface handed to devices for DC analysis
///        (AC stamps record through AcTermRecorder, ac_terms.hpp).
///
/// Ground (node 0) rows/columns are silently dropped, so devices stamp with
/// plain node ids and never special-case ground. Branch unknowns (voltage
/// sources, inductors) occupy rows/columns after the node block.

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "spice/solution.hpp"

namespace ypm::spice {

class RealStamper {
public:
    /// \param n_nodes number of non-ground nodes
    /// \param source_scale multiplier applied by independent sources to
    ///        their values (used by source-stepping homotopy; 1.0 normally)
    RealStamper(linalg::MatrixD& a, std::vector<double>& rhs,
                std::size_t n_nodes, double source_scale = 1.0)
        : a_(a), rhs_(rhs), n_nodes_(n_nodes), source_scale_(source_scale) {}

    [[nodiscard]] double source_scale() const { return source_scale_; }
    [[nodiscard]] std::size_t n_nodes() const { return n_nodes_; }

    /// A(row, col) += v for node/node entries.
    void mat(NodeId row, NodeId col, double v) {
        if (row == ground || col == ground) return;
        a_(idx(row), idx(col)) += v;
    }

    /// rhs(row) += v for a node row.
    void rhs(NodeId row, double v) {
        if (row == ground) return;
        rhs_[idx(row)] += v;
    }

    /// Two-terminal conductance stamp between nodes a and b.
    void conductance(NodeId a, NodeId b, double g) {
        mat(a, a, g);
        mat(b, b, g);
        mat(a, b, -g);
        mat(b, a, -g);
    }

    /// Branch-row entries (equation owned by a branch device).
    void mat_branch_row(std::size_t branch, NodeId col, double v) {
        if (col == ground) return;
        a_(brow(branch), idx(col)) += v;
    }
    void mat_branch_col(NodeId row, std::size_t branch, double v) {
        if (row == ground) return;
        a_(idx(row), brow(branch)) += v;
    }
    void mat_branch_branch(std::size_t br_row, std::size_t br_col, double v) {
        a_(brow(br_row), brow(br_col)) += v;
    }
    void rhs_branch(std::size_t branch, double v) { rhs_[brow(branch)] += v; }

private:
    [[nodiscard]] std::size_t idx(NodeId n) const {
        return static_cast<std::size_t>(n) - 1;
    }
    [[nodiscard]] std::size_t brow(std::size_t branch) const {
        return n_nodes_ + branch;
    }

    linalg::MatrixD& a_;
    std::vector<double>& rhs_;
    std::size_t n_nodes_;
    double source_scale_;
};

} // namespace ypm::spice
