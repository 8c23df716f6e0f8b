#include "flatcam/reconstruction.h"

#include <cmath>

#include "common/logging.h"
#include "flatcam/imaging.h"

namespace eyecod {
namespace flatcam {

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
    // X = Vl Xhat Vr^T.
    op.vl.multiplyInto(yhat_, &vl_prod_);
    vl_prod_.multiplyInto(op.vr_t, &scene_mat_);
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
