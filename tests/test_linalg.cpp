// Unit tests for src/linalg: dense matrix and the in-place partial-pivot LU
// (real and complex), including property-style randomised solve checks and
// bit-identity against the textbook reference LU in tests/support, on
// random input, on the OTA's captured MNA systems and on hand-built edge
// cases (zero and underflowing multipliers, NaN, overflow, singularity).

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <string>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "util/error.hpp"
#include "support/mna_capture.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

namespace {

using namespace ypm;
using linalg::InplaceLu;
using testsupport::ReferenceLu;
using linalg::MatrixC;
using linalg::MatrixD;

TEST(Matrix, ShapeAndIndexing) {
    MatrixD m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_FALSE(m.square());
    m(1, 2) = 7.0;
    EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
    m.set_zero();
    EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
}

TEST(Matrix, IdentityMultiply) {
    const auto eye = MatrixD::identity(4);
    const std::vector<double> x = {1.0, -2.0, 3.0, 0.5};
    EXPECT_EQ(eye.multiply(x), x);
}

TEST(Matrix, NormInf) {
    MatrixD m(2, 2);
    m(0, 0) = 1.0;
    m(0, 1) = -4.0;
    m(1, 0) = 2.0;
    m(1, 1) = 2.0;
    EXPECT_DOUBLE_EQ(m.norm_inf(), 5.0);
}

TEST(Lu, SolvesKnownSystem) {
    // [2 1; 1 3] x = [3; 5] -> x = [0.8, 1.4]
    MatrixD a(2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    const auto x = linalg::solve(a, {3.0, 5.0});
    EXPECT_NEAR(x[0], 0.8, 1e-12);
    EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, RequiresPivoting) {
    // Zero on the initial diagonal forces a row swap.
    MatrixD a(2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    const auto x = linalg::solve(a, {2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    MatrixD a(2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    EXPECT_THROW((void)linalg::solve(a, {1.0, 1.0}), NumericalError);
}

TEST(Lu, RejectsNonSquare) {
    MatrixD a(2, 3);
    InplaceLu<double> lu;
    EXPECT_THROW(lu.factor(a), NumericalError);
}

TEST(Lu, DeterminantKnown) {
    MatrixD a(2);
    a(0, 0) = 3;
    a(0, 1) = 1;
    a(1, 0) = 4;
    a(1, 1) = 2;
    const ReferenceLu<double> lu(a);
    EXPECT_NEAR(lu.determinant(), 2.0, 1e-12);
}

TEST(Lu, DeterminantSignWithPermutation) {
    MatrixD a(2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    const ReferenceLu<double> lu(a);
    EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

TEST(Lu, MultipleRhsFromOneFactorisation) {
    MatrixD a(3);
    a(0, 0) = 4;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    a(1, 2) = 1;
    a(2, 1) = 1;
    a(2, 2) = 2;
    MatrixD packed = a;
    InplaceLu<double> lu;
    lu.factor(packed);
    std::vector<double> x;
    for (const auto& rhs :
         {std::vector<double>{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 2, 3}}) {
        lu.solve(packed, rhs, x);
        const auto back = a.multiply(x);
        for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-10);
    }
}

TEST(Lu, ComplexSolve) {
    using C = std::complex<double>;
    MatrixC a(2);
    a(0, 0) = C(1, 1);
    a(0, 1) = C(0, 0);
    a(1, 0) = C(0, 0);
    a(1, 1) = C(0, 2);
    const auto x = linalg::solve(a, std::vector<C>{C(2, 0), C(0, 4)});
    EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
    EXPECT_NEAR(x[1].real(), 2.0, 1e-12);
    EXPECT_NEAR(x[1].imag(), 0.0, 1e-12);
}

TEST(Lu, RhsSizeMismatchThrows) {
    MatrixD packed = MatrixD::identity(3);
    InplaceLu<double> lu;
    lu.factor(packed);
    const std::vector<double> bad = {1.0, 2.0};
    std::vector<double> x;
    EXPECT_THROW(lu.solve(packed, bad, x), NumericalError);
}

// Property: random well-conditioned systems solve to high accuracy.
class LuRandomSolve : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSolve, ResidualIsTiny) {
    const std::size_t n = GetParam();
    Rng rng(1000 + n);
    MatrixD a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
        a(i, i) += static_cast<double>(n); // diagonal dominance
    }
    std::vector<double> x_true(n);
    for (auto& v : x_true) v = rng.uniform(-10.0, 10.0);
    const auto b = a.multiply(x_true);
    const auto x = linalg::solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSolve,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// Property: complex random systems.
class LuRandomComplex : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomComplex, ResidualIsTiny) {
    using C = std::complex<double>;
    const std::size_t n = GetParam();
    Rng rng(2000 + n);
    MatrixC a(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
        a(i, i) += C(static_cast<double>(n), 0.0);
    }
    std::vector<C> x_true(n);
    for (auto& v : x_true) v = C(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0));
    const auto b = a.multiply(x_true);
    const auto x = linalg::solve(a, b);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[i].real(), x_true[i].real(), 1e-8);
        EXPECT_NEAR(x[i].imag(), x_true[i].imag(), 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomComplex, ::testing::Values(2, 4, 9, 17, 30));

TEST(Lu, PivotRatioReflectsConditioning) {
    // Identity: perfectly conditioned pivots.
    const ReferenceLu<double> good(MatrixD::identity(5));
    EXPECT_NEAR(good.pivot_ratio(), 1.0, 1e-12);

    MatrixD bad(2);
    bad(0, 0) = 1.0;
    bad(0, 1) = 0.0;
    bad(1, 0) = 0.0;
    bad(1, 1) = 1e-12;
    const ReferenceLu<double> poor(bad);
    EXPECT_LT(poor.pivot_ratio(), 1e-9);
}

// Property: the production InplaceLu is bit-identical to the textbook
// reference on random systems that need pivoting (no diagonal dominance):
// same pivots, same elimination arithmetic, same substitution order.
template <typename T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

class InplaceLuMatchesReference
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InplaceLuMatchesReference, Real) {
    const std::size_t n = GetParam();
    Rng rng(3000 + n);
    MatrixD a(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);

    const auto reference = ReferenceLu<double>(a).solve(b);
    EXPECT_TRUE(bits_equal(linalg::solve(a, b), reference));
}

TEST_P(InplaceLuMatchesReference, Complex) {
    using C = std::complex<double>;
    const std::size_t n = GetParam();
    Rng rng(4000 + n);
    MatrixC a(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    std::vector<C> b(n);
    for (auto& v : b) v = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));

    const auto reference = ReferenceLu<C>(a).solve(b);
    EXPECT_TRUE(bits_equal(linalg::solve(a, b), reference));
}

INSTANTIATE_TEST_SUITE_P(Sizes, InplaceLuMatchesReference,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// ------------------------------------------- MNA-shaped inputs and edges
//
// InplaceLu against ReferenceLu on the inputs the simulator produces: the
// OTA's captured AC systems and DC Jacobians, random sparse patterns and
// hand-built edge cases. Both must solve to the same bytes (memcmp, signed
// zeros and NaN bits included) or throw the same error text.

/// The solution of one A x = b, or the error text if the factor threw.
template <typename T>
struct Outcome {
    std::vector<T> x;
    std::string error;
};

template <typename T>
Outcome<T> reference_outcome(const linalg::Matrix<T>& a,
                             const std::vector<T>& b) {
    try {
        return {ReferenceLu<T>(a).solve(b), {}};
    } catch (const NumericalError& e) {
        return {{}, e.what()};
    }
}

template <typename T>
Outcome<T> inplace_outcome(linalg::Matrix<T> a, const std::vector<T>& b) {
    try {
        InplaceLu<T> lu;
        lu.factor(a);
        std::vector<T> x;
        lu.solve(a, b, x);
        return {std::move(x), {}};
    } catch (const NumericalError& e) {
        return {{}, e.what()};
    }
}

template <typename T>
::testing::AssertionResult matches_reference(const linalg::Matrix<T>& a,
                                             const std::vector<T>& b) {
    const Outcome<T> ref = reference_outcome(a, b);
    const Outcome<T> got = inplace_outcome(a, b);
    if (ref.error != got.error)
        return ::testing::AssertionFailure()
               << "reference error '" << ref.error << "' vs inplace '"
               << got.error << "'";
    if (!bits_equal(ref.x, got.x))
        return ::testing::AssertionFailure() << "solutions differ in bits";
    return ::testing::AssertionSuccess();
}

bool negative_zero(double v) { return v == 0.0 && std::signbit(v); }
bool negative_zero(std::complex<double> v) {
    return negative_zero(v.real()) || negative_zero(v.imag());
}

/// Mismatching systems, after checking the capture has the MNA premise
/// the LU's exactness argument rests on: no -0 anywhere, and exact zeros
/// in every matrix (else the sparse path would go untested).
template <typename T>
std::size_t mismatches(const std::vector<testsupport::LinearSystem<T>>& systems) {
    std::size_t wrong = 0;
    for (const auto& sys : systems) {
        std::size_t zeros = 0;
        for (const T& v : sys.a.data()) {
            EXPECT_FALSE(negative_zero(v));
            zeros += v == T{} ? 1 : 0;
        }
        for (const T& v : sys.b) EXPECT_FALSE(negative_zero(v));
        EXPECT_GT(zeros, 0u);
        if (!matches_reference(sys.a, sys.b)) ++wrong;
    }
    return wrong;
}

const testsupport::OtaMnaCapture& ota_capture() {
    static const testsupport::OtaMnaCapture capture =
        testsupport::capture_ota_mna(50, 2016);
    return capture;
}

TEST(InplaceLuMna, OtaAcSystemsMatchReference) {
    const auto& cap = ota_capture();
    ASSERT_EQ(cap.points, 50u);
    ASSERT_EQ(cap.frequencies, 109u);
    ASSERT_EQ(cap.ac.size(), cap.points * cap.frequencies);
    EXPECT_EQ(mismatches(cap.ac), 0u);
}

TEST(InplaceLuMna, OtaDcJacobiansMatchReference) {
    const auto& cap = ota_capture();
    ASSERT_EQ(cap.dc.size(), 3 * cap.points);
    EXPECT_EQ(mismatches(cap.dc), 0u);
}

// Random sparse patterns (about a third of the entries nonzero, singular
// draws included: those must throw at the same column).
class InplaceLuSparseMatchesReference
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InplaceLuSparseMatchesReference, RealAndComplex) {
    using C = std::complex<double>;
    const std::size_t n = GetParam();
    Rng rng(5000 + n);
    for (int trial = 0; trial < 50; ++trial) {
        MatrixD ad(n);
        MatrixC ac(n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                if (i == j || rng.uniform01() < 0.3) {
                    ad(i, j) = rng.uniform(-1.0, 1.0);
                    ac(i, j) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
                }
        std::vector<double> bd(n, 0.0);
        std::vector<C> bc(n);
        bd[trial % n] = 1.0;
        bc[trial % n] = C(0.0, 1.0);
        EXPECT_TRUE(matches_reference(ad, bd)) << "n " << n << " trial " << trial;
        EXPECT_TRUE(matches_reference(ac, bc)) << "n " << n << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InplaceLuSparseMatchesReference,
                         ::testing::Values(2, 5, 13, 21));

MatrixD from_rows(std::initializer_list<std::initializer_list<double>> rows) {
    MatrixD a(rows.size());
    std::size_t i = 0;
    for (const auto& row : rows) {
        std::size_t j = 0;
        for (double v : row) a(i, j++) = v;
        ++i;
    }
    return a;
}

MatrixC complex_of(const MatrixD& a, double imag_scale) {
    MatrixC c(a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (a(i, j) != 0.0 || std::isnan(a(i, j)))
                c(i, j) = {a(i, j), imag_scale * a(i, j)};
    return c;
}

TEST(InplaceLuEdges, ExactZeroMultiplierRow) {
    // Row 1 has an exact zero under the first pivot, row 2 does not.
    const MatrixD a = from_rows({{4, 1, 2}, {0, 3, 1}, {-2, 1, 5}});
    const std::vector<double> b = {1, -2, 3};
    EXPECT_TRUE(matches_reference(a, b));
    EXPECT_TRUE(matches_reference(complex_of(a, 0.5),
                                  std::vector<std::complex<double>>(
                                      {{1, 0}, {-2, 1}, {3, 0}})));
}

TEST(InplaceLuEdges, MultiplierUnderflowsToZero) {
    // denorm_min / 4 rounds to +0: a nonzero entry whose multiplier is an
    // exact zero. A negative pivot gives a -0 multiplier.
    const double tiny = std::numeric_limits<double>::denorm_min();
    for (double pivot : {4.0, -4.0}) {
        const MatrixD a = from_rows({{pivot, 1, 1}, {tiny, 2, 0}, {1, 0, 3}});
        const std::vector<double> b = {0, 1, 0};
        EXPECT_TRUE(matches_reference(a, b)) << pivot;
        EXPECT_TRUE(matches_reference(
            complex_of(a, 0.25),
            std::vector<std::complex<double>>({{0, 0}, {1, -1}, {0, 0}})))
            << pivot;
    }
}

TEST(InplaceLuEdges, NanInPivotRowPropagates) {
    // A NaN in U (right of the first pivot, above an exact zero) reaches
    // the solution through back substitution.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const MatrixD a = from_rows({{4, nan, 0}, {0, 2, 1}, {0, 0, 3}});
    const std::vector<double> b = {1, 0, 1};
    EXPECT_TRUE(matches_reference(a, b));
    EXPECT_TRUE(matches_reference(
        complex_of(a, 1.0),
        std::vector<std::complex<double>>({{1, 0}, {0, 0}, {1, 1}})));
}

TEST(InplaceLuEdges, NanBelowPivotThrowsAtSameColumn) {
    // A NaN multiplier updates its whole row, zero columns included
    // (NaN * 0 is NaN), so the factor meets a NaN pivot at column 2.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const MatrixD a = from_rows({{4, 1, 0}, {0, 2, 0}, {nan, 0, 3}});
    const std::vector<double> b = {1, 1, 1};
    EXPECT_EQ(reference_outcome(a, b).error,
              "Lu: singular or non-finite matrix at column 2");
    EXPECT_TRUE(matches_reference(a, b));
    EXPECT_TRUE(matches_reference(
        complex_of(a, 1.0), std::vector<std::complex<double>>(3, {1, 0})));
}

TEST(InplaceLuEdges, SubstitutionOverflowToInf) {
    // Forward substitution overflows y1 to inf; the zero L and U entries
    // that meet it must still multiply it (0 * inf = NaN), as the
    // reference does.
    const double big = std::numeric_limits<double>::max();
    const MatrixD a = from_rows({{1, 0, 0}, {-1, 1, 0}, {0, 0, 1}});
    const std::vector<double> b = {big, big, 1};
    const Outcome<double> ref = reference_outcome(a, b);
    ASSERT_TRUE(ref.error.empty());
    EXPECT_TRUE(std::isnan(ref.x[0]));
    EXPECT_TRUE(matches_reference(a, b));
    EXPECT_TRUE(matches_reference(
        complex_of(a, 0.0),
        std::vector<std::complex<double>>({{big, 0}, {big, 0}, {1, 0}})));
}

TEST(InplaceLuEdges, SingularColumnThrowsAtSameColumn) {
    // Column 1 vanishes below the first pivot.
    const MatrixD a = from_rows({{2, 1, 0}, {4, 2, 1}, {0, 0, 3}});
    const std::vector<double> b = {1, 1, 1};
    EXPECT_EQ(reference_outcome(a, b).error,
              "Lu: singular or non-finite matrix at column 1");
    EXPECT_TRUE(matches_reference(a, b));
    EXPECT_TRUE(matches_reference(
        complex_of(a, 0.5), std::vector<std::complex<double>>(3, {1, 0})));
}

TEST(InplaceLuEdges, NegativeZeroInputSolvesEqual) {
    // -0 entries are outside the bit-identity contract (MNA stamps never
    // create one); the solutions must still compare equal.
    const MatrixD a = from_rows({{-2, -0.0, 1}, {-0.0, 3, -0.0}, {1, -0.0, 4}});
    const std::vector<double> b = {-0.0, 1, -0.0};
    const Outcome<double> ref = reference_outcome(a, b);
    const Outcome<double> got = inplace_outcome(a, b);
    ASSERT_TRUE(ref.error.empty() && got.error.empty());
    EXPECT_EQ(got.x, ref.x);

    using C = std::complex<double>;
    MatrixC c(2);
    c(0, 0) = C(-1, -0.0);
    c(0, 1) = C(-0.0, -0.0);
    c(1, 0) = C(-0.0, 0.0);
    c(1, 1) = C(2, -0.0);
    const std::vector<C> bc = {C(-0.0, -0.0), C(1, -0.0)};
    const Outcome<C> cref = reference_outcome(c, bc);
    const Outcome<C> cgot = inplace_outcome(c, bc);
    ASSERT_TRUE(cref.error.empty() && cgot.error.empty());
    EXPECT_EQ(cgot.x, cref.x);
}

} // namespace
