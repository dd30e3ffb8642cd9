// Unit tests for src/linalg: dense matrix and the in-place partial-pivot LU
// (real and complex), including property-style randomised solve checks and
// bit-identity against the textbook reference LU in tests/support.

#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "util/error.hpp"
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

} // namespace
