#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"

namespace eyecod {

namespace {

typedef double Vec16 __attribute__((vector_size(16)));
typedef double Vec32 __attribute__((vector_size(32)));

/**
 * out = a * b in vectors of type V; @p out is reshaped and zero-filled
 * first.
 *
 * Output columns split into panels of 8 vectors. Panels run outer and
 * rows inner, so b's K x panel slice stays in L1 across the rows; each
 * row's panel stays in 8 accumulator registers across the whole k
 * loop. Every output still sums a(i,k) * b(k,j) in ascending k, from
 * +0.0, as a separate multiply and add (matrix.cc builds with
 * -ffp-contract=off), and skips zero a(i,k): the bits of the scalar
 * ikj loop that the columns past the last full panel keep. Vectors go
 * through memcpy because rows are only 8-byte aligned. Always inlined,
 * so each caller's target attribute picks the instruction set.
 */
template <class V>
[[gnu::always_inline]] inline void
blockedProduct(const Matrix &a, const Matrix &b, Matrix *out)
{
    constexpr size_t kLanes = sizeof(V) / sizeof(double);
    constexpr size_t kAcc = 8;
    constexpr size_t kPanel = kAcc * kLanes;
    out->resetShape(a.rows(), b.cols());
    const size_t m = a.rows();
    const size_t kk = a.cols();
    const size_t n = b.cols();
    const double *ad = a.data().data();
    const double *bd = b.data().data();
    double *od = out->data().data();
    const size_t full = n - n % kPanel;
    for (size_t j0 = 0; j0 < full; j0 += kPanel) {
        for (size_t i = 0; i < m; ++i) {
            const double *arow = ad + i * kk;
            V acc[kAcc] = {};
            for (size_t k = 0; k < kk; ++k) {
                const double aik = arow[k];
                if (aik == 0.0)
                    continue;
                const double *bpanel = bd + k * n + j0;
                for (size_t v = 0; v < kAcc; ++v) {
                    V bv;
                    std::memcpy(&bv, bpanel + v * kLanes, sizeof(V));
                    acc[v] += aik * bv;
                }
            }
            double *opanel = od + i * n + j0;
            for (size_t v = 0; v < kAcc; ++v)
                std::memcpy(opanel + v * kLanes, &acc[v], sizeof(V));
        }
    }
    if (full == n)
        return;
    for (size_t i = 0; i < m; ++i) {
        for (size_t k = 0; k < kk; ++k) {
            const double aik = ad[i * kk + k];
            if (aik == 0.0)
                continue;
            const double *brow = bd + k * n;
            double *orow = od + i * n;
            for (size_t j = full; j < n; ++j)
                orow[j] += aik * brow[j];
        }
    }
}

} // namespace

namespace detail {

void
multiplyVec16(const Matrix &a, const Matrix &b, Matrix *out)
{
    blockedProduct<Vec16>(a, b, out);
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("avx2"))) void
multiplyVec32(const Matrix &a, const Matrix &b, Matrix *out)
{
    blockedProduct<Vec32>(a, b, out);
}

bool
cpuHasAvx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

#else

void
multiplyVec32(const Matrix &, const Matrix &, Matrix *)
{
    panic("multiplyVec32: no AVX2 on this target");
}

bool
cpuHasAvx2()
{
    return false;
}

#endif

} // namespace detail

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

void
Matrix::resetShape(size_t rows, size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
    std::fill(data_.begin(), data_.end(), 0.0);
}

Matrix
Matrix::multiply(const Matrix &other) const
{
    Matrix out;
    multiplyInto(other, &out);
    return out;
}

void
Matrix::multiplyInto(const Matrix &other, Matrix *out) const
{
    eyecod_assert(cols_ == other.rows_,
                  "matrix product shape mismatch %zux%zu * %zux%zu",
                  rows_, cols_, other.rows_, other.cols_);
    // The kernel zero-fills out before it reads the operands, so an
    // aliased call would multiply zeros.
    eyecod_assert(out != this && out != &other,
                  "matrix product output aliases an operand");
    static const auto kernel = detail::cpuHasAvx2()
                                   ? &detail::multiplyVec32
                                   : &detail::multiplyVec16;
    kernel(*this, other, out);
}

Matrix
Matrix::transposed() const
{
    Matrix out;
    transposedInto(&out);
    return out;
}

void
Matrix::transposedInto(Matrix *out) const
{
    eyecod_assert(out != this, "matrix transpose output aliases it");
    out->resetShape(cols_, rows_);
    for (size_t i = 0; i < rows_; ++i)
        for (size_t j = 0; j < cols_; ++j)
            (*out)(j, i) = (*this)(i, j);
}

Matrix
Matrix::add(const Matrix &other) const
{
    eyecod_assert(rows_ == other.rows_ && cols_ == other.cols_,
                  "matrix add shape mismatch");
    Matrix out(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + other.data_[i];
    return out;
}

Matrix
Matrix::sub(const Matrix &other) const
{
    eyecod_assert(rows_ == other.rows_ && cols_ == other.cols_,
                  "matrix sub shape mismatch");
    Matrix out(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - other.data_[i];
    return out;
}

Matrix
Matrix::scaled(double s) const
{
    Matrix out(rows_, cols_);
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * s;
    return out;
}

double
Matrix::frobeniusNorm() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

double
Matrix::maxAbs() const
{
    double best = 0.0;
    for (double v : data_)
        best = std::max(best, std::fabs(v));
    return best;
}

Matrix
solveSpd(const Matrix &a, const Matrix &b)
{
    eyecod_assert(a.rows() == a.cols(), "solveSpd needs square A");
    eyecod_assert(a.rows() == b.rows(), "solveSpd shape mismatch");
    const size_t n = a.rows();
    const size_t m = b.cols();

    // Cholesky: A = L L^T (lower triangular L).
    Matrix l(n, n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j <= i; ++j) {
            double acc = a(i, j);
            for (size_t k = 0; k < j; ++k)
                acc -= l(i, k) * l(j, k);
            if (i == j) {
                if (acc <= 0.0)
                    panic("solveSpd: matrix not positive definite "
                          "(pivot %g at %zu)", acc, i);
                l(i, i) = std::sqrt(acc);
            } else {
                l(i, j) = acc / l(j, j);
            }
        }
    }

    // Forward substitution L Y = B, then back substitution L^T X = Y.
    Matrix x = b;
    for (size_t c = 0; c < m; ++c) {
        for (size_t i = 0; i < n; ++i) {
            double acc = x(i, c);
            for (size_t k = 0; k < i; ++k)
                acc -= l(i, k) * x(k, c);
            x(i, c) = acc / l(i, i);
        }
        for (size_t ii = n; ii-- > 0;) {
            double acc = x(ii, c);
            for (size_t k = ii + 1; k < n; ++k)
                acc -= l(k, ii) * x(k, c);
            x(ii, c) = acc / l(ii, ii);
        }
    }
    return x;
}

namespace {

/**
 * One-sided Jacobi SVD on a matrix with rows >= cols. Columns of the
 * working copy converge to U * diag(S); V accumulates the rotations.
 */
Svd
jacobiSvdTall(const Matrix &a, int max_sweeps)
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    Matrix w = a;                  // working copy, becomes U * S
    Matrix v = Matrix::identity(n);

    const double eps = 1e-14;
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
        bool rotated = false;
        for (size_t p = 0; p + 1 < n; ++p) {
            for (size_t q = p + 1; q < n; ++q) {
                double app = 0.0, aqq = 0.0, apq = 0.0;
                for (size_t i = 0; i < m; ++i) {
                    const double wp = w(i, p), wq = w(i, q);
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                if (std::fabs(apq) <= eps * std::sqrt(app * aqq))
                    continue;
                rotated = true;
                const double tau = (aqq - app) / (2.0 * apq);
                const double t = (tau >= 0.0)
                    ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                    : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = c * t;
                for (size_t i = 0; i < m; ++i) {
                    const double wp = w(i, p), wq = w(i, q);
                    w(i, p) = c * wp - s * wq;
                    w(i, q) = s * wp + c * wq;
                }
                for (size_t i = 0; i < n; ++i) {
                    const double vp = v(i, p), vq = v(i, q);
                    v(i, p) = c * vp - s * vq;
                    v(i, q) = s * vp + c * vq;
                }
            }
        }
        if (!rotated)
            break;
    }

    // Extract singular values and normalize the columns of w into U.
    std::vector<double> sv(n, 0.0);
    for (size_t j = 0; j < n; ++j) {
        double norm = 0.0;
        for (size_t i = 0; i < m; ++i)
            norm += w(i, j) * w(i, j);
        sv[j] = std::sqrt(norm);
    }

    // Sort descending by singular value.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return sv[x] > sv[y]; });

    Svd out;
    out.u = Matrix(m, n);
    out.v = Matrix(n, n);
    out.s.resize(n);
    for (size_t jj = 0; jj < n; ++jj) {
        const size_t j = order[jj];
        out.s[jj] = sv[j];
        const double inv = sv[j] > 0.0 ? 1.0 / sv[j] : 0.0;
        for (size_t i = 0; i < m; ++i)
            out.u(i, jj) = w(i, j) * inv;
        for (size_t i = 0; i < n; ++i)
            out.v(i, jj) = v(i, j);
    }
    return out;
}

} // namespace

Svd
computeSvd(const Matrix &a, int max_sweeps)
{
    eyecod_assert(a.rows() > 0 && a.cols() > 0, "SVD of empty matrix");
    if (a.rows() >= a.cols())
        return jacobiSvdTall(a, max_sweeps);
    // Wide matrix: decompose the transpose and swap the factors.
    Svd t = jacobiSvdTall(a.transposed(), max_sweeps);
    Svd out;
    out.u = std::move(t.v);
    out.v = std::move(t.u);
    out.s = std::move(t.s);
    return out;
}

} // namespace eyecod
