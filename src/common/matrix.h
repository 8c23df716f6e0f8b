/**
 * @file
 * Dense double-precision matrix with the linear algebra the FlatCam
 * optical model needs: products, transposes, norms, and a one-sided
 * Jacobi singular value decomposition used by the separable Tikhonov
 * reconstruction.
 */

#ifndef EYECOD_COMMON_MATRIX_H
#define EYECOD_COMMON_MATRIX_H

#include <cstddef>
#include <vector>

namespace eyecod {

/**
 * A dense row-major matrix of doubles.
 */
class Matrix
{
  public:
    /** An empty 0x0 matrix. */
    Matrix() = default;

    /** A rows x cols matrix filled with @p fill. */
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    /** Number of rows. */
    size_t rows() const { return rows_; }
    /** Number of columns. */
    size_t cols() const { return cols_; }
    /** Total number of elements. */
    size_t size() const { return data_.size(); }

    /** Mutable element access. */
    double &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    /** Const element access. */
    double
    operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Raw storage (row-major). */
    const std::vector<double> &data() const { return data_; }
    /** Raw storage (row-major, mutable). */
    std::vector<double> &data() { return data_; }

    /** The identity matrix of order n. */
    static Matrix identity(size_t n);

    /**
     * Reshape in place to rows x cols of zeros, reusing the existing
     * allocation whenever the new element count fits the current
     * capacity. Leaves the matrix in the same state as a fresh
     * Matrix(rows, cols).
     */
    void resetShape(size_t rows, size_t cols);

    /** Matrix product this * other. */
    Matrix multiply(const Matrix &other) const;

    /**
     * Matrix product this * other written into @p out, reusing
     * @p out's buffer (zero allocations in steady state).
     * Bitwise-identical to multiply(). @p out must not alias either
     * operand (checked).
     *
     * Each output sums this(i,k) * other(k,j) in ascending k, from
     * +0.0, as a separate multiply and add, and skips every zero
     * this(i,k), so the bits do not depend on the SIMD width: the
     * kernel runs at 32-byte vectors where the CPU has AVX2 and at
     * 16-byte vectors elsewhere, picked once per process.
     */
    void multiplyInto(const Matrix &other, Matrix *out) const;

    /** Transpose. */
    Matrix transposed() const;

    /**
     * Transpose into @p out, reusing @p out's buffer.
     * Bitwise-identical to transposed(). @p out must not alias this
     * (checked).
     */
    void transposedInto(Matrix *out) const;

    /** Element-wise sum; shapes must match. */
    Matrix add(const Matrix &other) const;

    /** Element-wise difference; shapes must match. */
    Matrix sub(const Matrix &other) const;

    /** All elements multiplied by s. */
    Matrix scaled(double s) const;

    /** Frobenius norm. */
    double frobeniusNorm() const;

    /** Largest absolute element. */
    double maxAbs() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

namespace detail {

/**
 * The product kernel of Matrix::multiplyInto at 16-byte vectors: SSE2
 * on x86-64, and the only width on other targets. Shapes and aliasing
 * are unchecked; exposed so tests can compare each width's bits.
 */
void multiplyVec16(const Matrix &a, const Matrix &b, Matrix *out);

/**
 * The same kernel at 32-byte AVX2 vectors. Call it only when
 * cpuHasAvx2().
 */
void multiplyVec32(const Matrix &a, const Matrix &b, Matrix *out);

/** True on an x86 CPU with AVX2; false on every other target. */
bool cpuHasAvx2();

} // namespace detail

/**
 * Thin singular value decomposition A = U * diag(S) * V^T.
 *
 * U is m x k, S holds k = min(m, n) non-negative singular values in
 * descending order, and V is n x k with orthonormal columns.
 */
struct Svd
{
    Matrix u;              ///< Left singular vectors (m x k).
    std::vector<double> s; ///< Singular values, descending.
    Matrix v;              ///< Right singular vectors (n x k).
};

/**
 * Solve A * X = B for X where A is symmetric positive definite,
 * via Cholesky factorization. Used by the ridge-regression gaze
 * estimator (normal equations).
 *
 * @param a SPD matrix (n x n); not modified.
 * @param b right-hand side (n x m).
 * @return X (n x m).
 */
Matrix solveSpd(const Matrix &a, const Matrix &b);

/**
 * Compute the thin SVD of @p a via one-sided Jacobi rotations.
 *
 * Intended for the moderate sizes of FlatCam transfer matrices
 * (hundreds of rows/columns); accuracy is ~1e-10 relative.
 *
 * @param a input matrix (m x n with m >= n preferred; handled
 *          internally otherwise).
 * @param max_sweeps upper bound on Jacobi sweeps before giving up.
 */
Svd computeSvd(const Matrix &a, int max_sweeps = 60);

} // namespace eyecod

#endif // EYECOD_COMMON_MATRIX_H
