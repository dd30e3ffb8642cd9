#pragma once
/// \file ac_terms.hpp
/// \brief Recorded AC stamp terms: the one small-signal stamp of every
///        device.
///
/// A device records its small-signal stamp once per operating point through
/// AcTermRecorder; the AC sweep then *replays* the term list at each
/// frequency instead of re-running the device models (for a MOSFET that
/// model is the full EKV evaluation). Two term forms cover every device,
/// with k (complex) and c (real) fixed by the operating point:
///
///  * affine:  entry += k + j*omega*c        (R, C, L, sources, MOSFET)
///  * pole:    entry += k / (1 + j*omega/c)  (the behavioural OTA's single
///                                             dominant pole, c = omega_p)
///
/// Replay performs exactly one += per recorded term, of the value
/// C(k.re, k.im + omega*c) or k / C(1, omega/c), in recording order, which
/// is device order. The recorder mirrors Stamper's index math (ground
/// rows/columns dropped, branch unknowns after the node block).

#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include "spice/solution.hpp"
#include "util/error.hpp"

namespace ypm::spice {

/// One recorded contribution to storage[index] (see the file comment).
struct AcTerm {
    enum class Kind : std::uint32_t { affine, pole };

    std::uint32_t index = 0;
    Kind kind = Kind::affine; ///< fits in the padding after index
    std::complex<double> base; ///< k
    double c = 0.0; ///< affine: susceptance per rad/s; pole: omega_p
};
static_assert(sizeof(AcTerm) == 32, "AcTerm grew past 32 bytes");

class AcTermRecorder {
public:
    /// \param n_nodes number of non-ground nodes
    /// \param n_unknowns nodes + branches (matrix dimension)
    AcTermRecorder(std::size_t n_nodes, std::size_t n_unknowns) {
        reset(n_nodes, n_unknowns);
    }

    /// Re-target the recorder and drop recorded terms, keeping the term
    /// vectors' capacity (the sweep workspace re-records per operating
    /// point).
    void reset(std::size_t n_nodes, std::size_t n_unknowns) {
        // Matrix indices pack into 32 bits; fail loudly, don't wrap.
        if (n_unknowns * n_unknowns >
            std::numeric_limits<std::uint32_t>::max())
            throw InvalidInputError(
                "AcTermRecorder: system too large for 32-bit term indices");
        n_nodes_ = n_nodes;
        n_ = n_unknowns;
        terms_.clear();
        rhs_terms_.clear();
    }

    /// A(row, col) += base + j*omega*sus for node/node entries.
    void mat(NodeId row, NodeId col, std::complex<double> base, double sus = 0.0) {
        if (row == ground || col == ground) return;
        push(idx(row) * n_ + idx(col), base, sus);
    }

    /// rhs(row) += base (AC excitations are frequency-independent phasors,
    /// so rhs terms replay once per operating point, not per frequency).
    void rhs(NodeId row, std::complex<double> base) {
        if (row == ground) return;
        rhs_terms_.push_back({static_cast<std::uint32_t>(idx(row)),
                              AcTerm::Kind::affine, base, 0.0});
    }

    /// Two-terminal admittance stamp; expands to the same four mat() calls,
    /// in the same order, as Stamper::conductance.
    void conductance(NodeId a, NodeId b, std::complex<double> base,
                     double sus = 0.0) {
        mat(a, a, base, sus);
        mat(b, b, base, sus);
        mat(a, b, -base, -sus);
        mat(b, a, -base, -sus);
    }

    void mat_branch_row(std::size_t branch, NodeId col, std::complex<double> base,
                        double sus = 0.0) {
        if (col == ground) return;
        push(brow(branch) * n_ + idx(col), base, sus);
    }
    void mat_branch_col(NodeId row, std::size_t branch, std::complex<double> base,
                        double sus = 0.0) {
        if (row == ground) return;
        push(idx(row) * n_ + brow(branch), base, sus);
    }
    void mat_branch_branch(std::size_t br_row, std::size_t br_col,
                           std::complex<double> base, double sus = 0.0) {
        push(brow(br_row) * n_ + brow(br_col), base, sus);
    }
    void rhs_branch(std::size_t branch, std::complex<double> base) {
        rhs_terms_.push_back({static_cast<std::uint32_t>(brow(branch)),
                              AcTerm::Kind::affine, base, 0.0});
    }

    /// Branch-row pole term: A(branch, col) += k / (1 + j*omega/omega_p).
    void mat_branch_row_pole(std::size_t branch, NodeId col, double k,
                             double omega_p) {
        if (col == ground) return;
        push(brow(branch) * n_ + idx(col), k, omega_p, AcTerm::Kind::pole);
    }

    /// Replay every matrix term at angular frequency omega into the dense
    /// row-major storage `a` (n*n). The caller zeroes it first, as an AC
    /// solve zeroes its system before stamping.
    void replay_matrix(double omega, std::complex<double>* a) const {
        for (const AcTerm& t : terms_) {
            std::complex<double> v = t.base;
            if (t.kind == AcTerm::Kind::pole)
                v /= std::complex<double>(1.0, omega / t.c);
            else if (t.c != 0.0) // c == 0 covers -0.0: base alone is exact
                v = std::complex<double>(t.base.real(),
                                         t.base.imag() + omega * t.c);
            a[t.index] += v;
        }
    }

    /// Replay the rhs terms into `b` (n entries, zeroed by the caller).
    void replay_rhs(std::complex<double>* b) const {
        for (const AcTerm& t : rhs_terms_) b[t.index] += t.base;
    }

private:
    [[nodiscard]] std::size_t idx(NodeId n) const {
        return static_cast<std::size_t>(n) - 1;
    }
    [[nodiscard]] std::size_t brow(std::size_t branch) const {
        return n_nodes_ + branch;
    }
    void push(std::size_t index, std::complex<double> base, double c,
              AcTerm::Kind kind = AcTerm::Kind::affine) {
        terms_.push_back({static_cast<std::uint32_t>(index), kind, base, c});
    }

    std::size_t n_nodes_ = 0;
    std::size_t n_ = 0;
    std::vector<AcTerm> terms_;     ///< matrix contributions
    std::vector<AcTerm> rhs_terms_; ///< frequency-constant rhs contributions
};

} // namespace ypm::spice
