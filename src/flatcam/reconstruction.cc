#include "flatcam/reconstruction.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "flatcam/imaging.h"

namespace eyecod {
namespace flatcam {

namespace {

/**
 * Rows y0 .. y0 + h - 1 and columns x0 .. x0 + w - 1 of @p m, each
 * index clamped into m (Image::croppedInto's edge rule): @p m itself
 * when the block is all of it, else the block copied into @p scratch.
 */
const Matrix &
clampedBlock(const Matrix &m, int y0, int h, int x0, int w,
             Matrix *scratch)
{
    const int rows = int(m.rows());
    const int cols = int(m.cols());
    if (y0 == 0 && x0 == 0 && h == rows && w == cols)
        return m;
    scratch->resetShape(size_t(h), size_t(w));
    // Block columns [0, lo) clamp to m's first column, [hi, w) to its
    // last; [lo, hi) lie inside m.
    const int lo = std::clamp(-x0, 0, w);
    const int hi = std::clamp(cols - x0, lo, w);
    for (int y = 0; y < h; ++y) {
        const size_t r = size_t(std::clamp(y0 + y, 0, rows - 1));
        const double *src = m.data().data() + r * size_t(cols);
        double *dst = scratch->data().data() + size_t(y) * size_t(w);
        std::fill_n(dst, lo, src[0]);
        if (lo < hi)
            std::copy_n(src + x0 + lo, hi - lo, dst + lo);
        std::fill_n(dst + hi, w - hi, src[cols - 1]);
    }
    return *scratch;
}

} // namespace

FlatCamReconstructor::FlatCamReconstructor(const SeparableMask &mask,
                                           double epsilon)
    : FlatCamReconstructor(
          std::make_shared<const ReconOptics>(mask, epsilon))
{
}

FlatCamReconstructor::FlatCamReconstructor(
    std::shared_ptr<const ReconOptics> optics)
    : optics_(std::move(optics))
{
    eyecod_assert(optics_ != nullptr, "reconstructor without optics");
    const ReconOptics &op = *optics_;
    meas_mat_.resetShape(op.ul_t.cols(), op.ur.rows());
    left_prod_.resetShape(op.ul_t.rows(), op.ur.rows());
    yhat_.resetShape(op.ul_t.rows(), op.ur.cols());
    vl_prod_.resetShape(op.vl.rows(), op.ur.cols());
    scene_mat_.resetShape(op.vl.rows(), op.vr_t.cols());
}

Status
FlatCamReconstructor::reconstructFrameInto(ImageConstView measurement,
                                           Image *out) const
{
    return reconstructFrameInto(
        measurement, Rect{0, 0, sceneCols(), sceneRows()}, out);
}

Status
FlatCamReconstructor::reconstructFrameInto(ImageConstView measurement,
                                           const Rect &roi,
                                           Image *out) const
{
    eyecod_assert(roi.width > 0 && roi.height > 0, "empty ROI");
    const ReconOptics &op = *optics_;
    if (size_t(measurement.height()) != op.ul_t.cols() ||
        size_t(measurement.width()) != op.ur.rows())
        return Status::error(
            ErrorCode::ShapeMismatch,
            "measurement shape %dx%d != sensor extent %zux%zu",
            measurement.height(), measurement.width(), op.ul_t.cols(),
            op.ur.rows());
    for (int y = 0; y < measurement.height(); ++y) {
        for (int x = 0; x < measurement.width(); ++x) {
            if (!std::isfinite(measurement.at(y, x)))
                return Status::error(
                    ErrorCode::NonFinite,
                    "non-finite sensor measurement; reconstruction "
                    "would corrupt the whole scene");
        }
    }

    imageToMatrixInto(measurement, &meas_mat_);
    // Yhat = Ul^T y Ur.
    op.ul_t.multiplyInto(meas_mat_, &left_prod_);
    left_prod_.multiplyInto(op.ur, &yhat_);
    // Element-wise Tikhonov filter.
    for (size_t i = 0; i < yhat_.rows(); ++i)
        for (size_t j = 0; j < yhat_.cols(); ++j)
            yhat_(i, j) *= op.filter(i, j);
    // X = Vl Xhat Vr^T over the ROI: its edge-clamped rows of Vl and
    // columns of Vr^T. Each pixel sums the terms of the full product
    // in the same order. y and Ul^T y are consumed, so their buffers
    // take the two slices of an ROI smaller than the scene.
    const Matrix &vl_rows = clampedBlock(
        op.vl, roi.y, roi.height, 0, int(op.vl.cols()), &meas_mat_);
    const Matrix &vr_t_cols = clampedBlock(
        op.vr_t, 0, int(op.vr_t.rows()), roi.x, roi.width, &left_prod_);
    vl_rows.multiplyInto(yhat_, &vl_prod_);
    vl_prod_.multiplyInto(vr_t_cols, &scene_mat_);
    matrixToImageInto(scene_mat_, out);
    out->clamp(0.0f, 1.0f);
    return Status::ok();
}

long long
FlatCamReconstructor::macsPerFrame() const
{
    const ReconOptics &op = *optics_;
    const long long kl = (long long)op.filter.rows();
    const long long kr = (long long)op.filter.cols();
    const long long sr_rows = (long long)op.ul_t.cols();
    const long long sc_cols = (long long)op.ur.rows();
    const long long scene_r = (long long)op.vl.rows();
    const long long scene_c = (long long)op.vr_t.cols();
    // Ul^T * y, (.) * Ur, element-wise filter, Vl * Xhat, (.) * Vr^T.
    return kl * sr_rows * sc_cols + kl * sc_cols * kr + kl * kr +
           scene_r * kl * kr + scene_r * kr * scene_c;
}

} // namespace flatcam
} // namespace eyecod
