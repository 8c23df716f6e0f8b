/**
 * @file
 * Unit and property tests of the dense matrix kernel: products,
 * transposes, Jacobi SVD, and the SPD Cholesky solver.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "eyetrack/pipeline.h"
#include "flatcam/optics.h"

namespace eyecod {
namespace {

Matrix
randomMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Rng rng(seed);
    Matrix m(rows, cols);
    for (double &v : m.data())
        v = rng.gaussian();
    return m;
}

/**
 * The scalar ikj product, written independently of the kernel: each
 * output sums a(i,k) * b(k,j) in ascending k, from +0.0, skipping
 * zero a(i,k). This file builds with -ffp-contract=off, as matrix.cc
 * does, so neither side fuses the multiply and add.
 */
Matrix
referenceProduct(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t k = 0; k < a.cols(); ++k) {
            const double aik = a(i, k);
            if (aik == 0.0)
                continue;
            for (size_t j = 0; j < b.cols(); ++j)
                out(i, j) += aik * b(k, j);
        }
    }
    return out;
}

bool
sameBits(const Matrix &x, const Matrix &y)
{
    return x.rows() == y.rows() && x.cols() == y.cols() &&
           (x.size() == 0 ||
            std::memcmp(x.data().data(), y.data().data(),
                        x.size() * sizeof(double)) == 0);
}

struct ProductCase
{
    std::string name;
    Matrix a;
    Matrix b;
};

/** A gaussian matrix with about a quarter of its entries zero. */
Matrix
sparseMatrix(size_t rows, size_t cols, uint64_t seed)
{
    Matrix m = randomMatrix(rows, cols, seed);
    Rng rng(seed + 1);
    for (double &v : m.data())
        if (rng.uniform() < 0.25)
            v = 0.0;
    return m;
}

/**
 * The products of one FlatCam frame, on the pipeline's optics: the
 * forward model both ways round (the sensor computes Y^T, which skips
 * PhiR's zeros), then the four reconstruction products.
 */
void
addFlatCamCases(std::vector<ProductCase> *cases)
{
    const eyetrack::PipelineConfig cfg;
    const auto optics = flatcam::sharedOptics(
        eyetrack::flatcamMaskConfig(cfg), cfg.recon_epsilon);
    const flatcam::SensorOptics &s = optics->sensor;
    const flatcam::ReconOptics &r = optics->recon;
    Matrix scene(size_t(cfg.scene_size), size_t(cfg.scene_size));
    Rng rng(17);
    for (double &v : scene.data())
        v = rng.uniform();
    const Matrix left = referenceProduct(s.mask.phiL, scene);
    const Matrix phi_r_t = s.mask.phiR.transposed();
    const Matrix y = referenceProduct(left, phi_r_t);
    const Matrix ul_y = referenceProduct(r.ul_t, y);
    Matrix yhat = referenceProduct(ul_y, r.ur);
    for (size_t i = 0; i < yhat.rows(); ++i)
        for (size_t j = 0; j < yhat.cols(); ++j)
            yhat(i, j) *= r.filter(i, j);
    const Matrix vl_yhat = referenceProduct(r.vl, yhat);
    cases->push_back({"PhiL * x", s.mask.phiL, scene});
    cases->push_back({"(PhiL x) * PhiR^T", left, phi_r_t});
    cases->push_back({"PhiR * (PhiL x)^T", s.mask.phiR, left.transposed()});
    cases->push_back({"Ul^T * y", r.ul_t, y});
    cases->push_back({"(Ul^T y) * Ur", ul_y, r.ur});
    cases->push_back({"Vl * Yhat", r.vl, yhat});
    cases->push_back({"(Vl Yhat) * Vr^T", vl_yhat, r.vr_t});
}

/**
 * Zero and -0.0 left entries facing NaN and +-Inf right entries. Each
 * output meets at most one NaN: which of two NaNs a sum keeps is the
 * hardware's operand-order choice, which C++ leaves to the compiler.
 */
ProductCase
nonFiniteCase()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Matrix b = randomMatrix(6, 37, 41);
    for (size_t j = 0; j < b.cols(); ++j) {
        b(1, j) = inf;
        b(2, j) = -inf;
        b(3, j) = nan;
        b(5, j) = -0.0;
    }
    // Rows: all specials skipped through 0.0, then through -0.0;
    // +Inf; -Inf; Inf - Inf; NaN; a lone -0.0 product.
    const double rows[7][6] = {
        {0.5, 0.0, 0.0, 0.0, -1.5, 2.0},
        {0.5, -0.0, -0.0, -0.0, -1.5, 2.0},
        {0.5, 3.0, -0.0, 0.0, -1.5, 2.0},
        {0.5, 0.0, 3.0, -0.0, -1.5, 2.0},
        {0.5, 3.0, 3.0, 0.0, -1.5, 2.0},
        {0.5, -0.0, 0.0, 3.0, -1.5, 2.0},
        {0.0, 0.0, -0.0, 0.0, 0.0, 2.0},
    };
    Matrix a(7, 6);
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t k = 0; k < a.cols(); ++k)
            a(i, k) = rows[i][k];
    return {"non-finite right entries", a, b};
}

std::vector<ProductCase>
kernelCases()
{
    std::vector<ProductCase> cases;
    addFlatCamCases(&cases);
    // Column tails on both sides of each width's 16- and 32-column
    // panels.
    for (size_t n : {1, 3, 15, 17, 31, 33, 161})
        cases.push_back({"tail n=" + std::to_string(n),
                         sparseMatrix(9, 13, n),
                         randomMatrix(13, n, 100 + n)});
    // Every mix of 0, 1 and 37 (a panel plus a tail) for M, K and N.
    for (size_t m : {0, 1, 37})
        for (size_t k : {0, 1, 37})
            for (size_t n : {0, 1, 37})
                cases.push_back({"shape " + std::to_string(m) + "x" +
                                     std::to_string(k) + "x" +
                                     std::to_string(n),
                                 sparseMatrix(m, k, m + k),
                                 randomMatrix(k, n, k + n)});
    cases.push_back(nonFiniteCase());
    // Subnormal left entries, and subnormal products of normal ones.
    cases.push_back({"subnormal left",
                     randomMatrix(11, 40, 51).scaled(1e-310),
                     randomMatrix(40, 35, 52)});
    cases.push_back({"subnormal products",
                     sparseMatrix(11, 40, 53).scaled(1e-160),
                     randomMatrix(40, 35, 54).scaled(1e-150)});
    return cases;
}

void
expectReferenceBits(void (*kernel)(const Matrix &, const Matrix &,
                                   Matrix *))
{
    Matrix out; // reused across shapes, as the frame path does
    for (const ProductCase &c : kernelCases()) {
        kernel(c.a, c.b, &out);
        EXPECT_TRUE(sameBits(out, referenceProduct(c.a, c.b))) << c.name;
    }
}

TEST(MatrixKernel, Vec16MatchesScalarReferenceBitForBit)
{
    expectReferenceBits(&detail::multiplyVec16);
}

TEST(MatrixKernel, Vec32MatchesScalarReferenceBitForBit)
{
    if (!detail::cpuHasAvx2())
        GTEST_SKIP() << "this CPU has no AVX2";
    expectReferenceBits(&detail::multiplyVec32);
}

TEST(MatrixDeathTest, ProductOrTransposeIntoAnOperandIsRejected)
{
    // resetShape zero-fills the output first, so an aliased call
    // would silently read zeros.
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2;
    a(1, 0) = 3; a(1, 1) = 4;
    Matrix b = a;
    EXPECT_DEATH(a.multiplyInto(b, &a), "aliases");
    EXPECT_DEATH(a.multiplyInto(b, &b), "aliases");
    EXPECT_DEATH(a.multiplyInto(a, &a), "aliases");
    EXPECT_DEATH(a.transposedInto(&a), "aliases");
}

TEST(Matrix, IdentityMultiplication)
{
    const Matrix a = randomMatrix(5, 7, 1);
    const Matrix out = Matrix::identity(5).multiply(a);
    EXPECT_NEAR(out.sub(a).frobeniusNorm(), 0.0, 1e-12);
}

TEST(Matrix, MultiplyKnownValues)
{
    Matrix a(2, 3);
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    Matrix b(3, 2);
    b(0, 0) = 7; b(0, 1) = 8;
    b(1, 0) = 9; b(1, 1) = 10;
    b(2, 0) = 11; b(2, 1) = 12;
    const Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, TransposeInvolution)
{
    const Matrix a = randomMatrix(4, 9, 2);
    const Matrix att = a.transposed().transposed();
    EXPECT_NEAR(att.sub(a).frobeniusNorm(), 0.0, 0.0);
}

TEST(Matrix, TransposeReversesProduct)
{
    const Matrix a = randomMatrix(4, 6, 3);
    const Matrix b = randomMatrix(6, 5, 4);
    const Matrix lhs = a.multiply(b).transposed();
    const Matrix rhs = b.transposed().multiply(a.transposed());
    EXPECT_NEAR(lhs.sub(rhs).frobeniusNorm(), 0.0, 1e-12);
}

TEST(Matrix, AddSubScale)
{
    const Matrix a = randomMatrix(3, 3, 5);
    const Matrix b = randomMatrix(3, 3, 6);
    const Matrix sum = a.add(b);
    const Matrix back = sum.sub(b);
    EXPECT_NEAR(back.sub(a).frobeniusNorm(), 0.0, 1e-12);
    EXPECT_NEAR(a.scaled(2.0).sub(a.add(a)).frobeniusNorm(), 0.0,
                1e-12);
}

TEST(Matrix, MaxAbs)
{
    Matrix a(2, 2);
    a(0, 0) = -5.0;
    a(1, 1) = 3.0;
    EXPECT_DOUBLE_EQ(a.maxAbs(), 5.0);
}

TEST(Svd, DiagonalMatrix)
{
    Matrix a(4, 3);
    a(0, 0) = 3.0;
    a(1, 1) = 2.0;
    a(2, 2) = 1.0;
    const Svd s = computeSvd(a);
    ASSERT_EQ(s.s.size(), 3u);
    EXPECT_NEAR(s.s[0], 3.0, 1e-10);
    EXPECT_NEAR(s.s[1], 2.0, 1e-10);
    EXPECT_NEAR(s.s[2], 1.0, 1e-10);
}

TEST(Svd, SingularValuesSortedDescending)
{
    const Svd s = computeSvd(randomMatrix(20, 12, 7));
    for (size_t i = 0; i + 1 < s.s.size(); ++i)
        EXPECT_GE(s.s[i], s.s[i + 1]);
}

/** Parameterized over matrix shapes: tall, square, and wide. */
class SvdShapes
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(SvdShapes, ReconstructsInput)
{
    const auto [rows, cols] = GetParam();
    const Matrix a = randomMatrix(size_t(rows), size_t(cols),
                                  uint64_t(rows * 100 + cols));
    const Svd s = computeSvd(a);
    const size_t k = s.s.size();
    ASSERT_EQ(k, size_t(std::min(rows, cols)));

    Matrix us(size_t(rows), k);
    for (size_t i = 0; i < size_t(rows); ++i)
        for (size_t j = 0; j < k; ++j)
            us(i, j) = s.u(i, j) * s.s[j];
    const Matrix rec = us.multiply(s.v.transposed());
    EXPECT_LT(rec.sub(a).frobeniusNorm(),
              1e-9 * std::max(1.0, a.frobeniusNorm()));
}

TEST_P(SvdShapes, FactorsAreOrthonormal)
{
    const auto [rows, cols] = GetParam();
    const Matrix a = randomMatrix(size_t(rows), size_t(cols),
                                  uint64_t(rows * 31 + cols));
    const Svd s = computeSvd(a);
    const size_t k = s.s.size();
    const Matrix utu = s.u.transposed().multiply(s.u);
    const Matrix vtv = s.v.transposed().multiply(s.v);
    EXPECT_LT(utu.sub(Matrix::identity(k)).frobeniusNorm(), 1e-8);
    EXPECT_LT(vtv.sub(Matrix::identity(k)).frobeniusNorm(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::pair{8, 8}, std::pair{16, 8},
                      std::pair{8, 16}, std::pair{33, 17},
                      std::pair{17, 33}, std::pair{64, 48}));

TEST(SolveSpd, RecoversKnownSolution)
{
    // Build an SPD system A = M^T M + I and a known X.
    const Matrix m = randomMatrix(10, 10, 11);
    const Matrix a =
        m.transposed().multiply(m).add(Matrix::identity(10));
    const Matrix x_true = randomMatrix(10, 3, 12);
    const Matrix b = a.multiply(x_true);
    const Matrix x = solveSpd(a, b);
    EXPECT_LT(x.sub(x_true).frobeniusNorm(), 1e-8);
}

TEST(SolveSpd, SolvesIdentity)
{
    const Matrix b = randomMatrix(6, 2, 13);
    const Matrix x = solveSpd(Matrix::identity(6), b);
    EXPECT_NEAR(x.sub(b).frobeniusNorm(), 0.0, 1e-12);
}

TEST(SolveSpd, OneByOneSystem)
{
    Matrix a(1, 1);
    a(0, 0) = 4.0;
    Matrix b(1, 1);
    b(0, 0) = 10.0;
    EXPECT_DOUBLE_EQ(solveSpd(a, b)(0, 0), 2.5);
}

TEST(Svd, RankDeficientMatrixHasZeroSingularValue)
{
    // Two identical columns: rank 2 in a 4x3 matrix.
    Matrix a = randomMatrix(4, 3, 19);
    for (size_t i = 0; i < 4; ++i)
        a(i, 2) = a(i, 1);
    const Svd s = computeSvd(a);
    EXPECT_LT(s.s.back(), 1e-10);
    EXPECT_GT(s.s[0], 0.1);
}

TEST(Svd, SingleColumnMatrix)
{
    Matrix a(5, 1);
    for (size_t i = 0; i < 5; ++i)
        a(i, 0) = 3.0;
    const Svd s = computeSvd(a);
    ASSERT_EQ(s.s.size(), 1u);
    EXPECT_NEAR(s.s[0], 3.0 * std::sqrt(5.0), 1e-10);
}

TEST(Matrix, MultiplyWithZeroMatrixShortCircuits)
{
    const Matrix z(4, 4, 0.0);
    const Matrix a = randomMatrix(4, 4, 23);
    EXPECT_DOUBLE_EQ(z.multiply(a).frobeniusNorm(), 0.0);
}

} // namespace
} // namespace eyecod
