#include "flatcam/imaging.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eyecod {
namespace flatcam {

FlatCamSensor::FlatCamSensor(SeparableMask mask, SensorNoise noise)
    : FlatCamSensor(std::make_shared<const SensorOptics>(std::move(mask)),
                    noise)
{
}

FlatCamSensor::FlatCamSensor(std::shared_ptr<const SensorOptics> optics,
                             SensorNoise noise)
    : optics_(std::move(optics)), noise_(noise), rng_(noise.seed)
{
    eyecod_assert(optics_ != nullptr, "sensor without optics");
    // scene_mat_ holds x, then (PhiL x)^T: sized for the larger.
    scene_mat_.resetShape(size_t(sceneCols()),
                          size_t(std::max(sceneRows(), sensorRows())));
    left_prod_.resetShape(size_t(sensorRows()), size_t(sceneCols()));
    measurement_.resetShape(size_t(sensorCols()), size_t(sensorRows()));
}

Status
FlatCamSensor::captureFrameInto(ImageConstView scene,
                                long frame_index, Image *out) const
{
    if (scene.height() != sceneRows() || scene.width() != sceneCols())
        return Status::error(
            ErrorCode::ShapeMismatch,
            "frame %ld: scene shape %dx%d != mask scene extent %dx%d",
            frame_index, scene.height(), scene.width(), sceneRows(),
            sceneCols());

    // Y^T = PhiR (PhiL x)^T. Each element sums the terms of
    // (PhiL x) PhiR^T in the same k order, and the kernel skips the
    // zero left operands of both products: PhiL's, then PhiR's. x is
    // consumed by the first product, so its buffer takes (PhiL x)^T.
    imageToMatrixInto(scene, &scene_mat_);
    optics_->mask.phiL.multiplyInto(scene_mat_, &left_prod_);
    left_prod_.transposedInto(&scene_mat_);
    optics_->mask.phiR.multiplyInto(scene_mat_, &measurement_);

    // Noise is drawn in Y's element order: Y(i, j) is measurement_(j, i).
    const size_t rows = size_t(sensorRows());
    const size_t cols = size_t(sensorCols());
    // Shot noise: model each measurement as a scaled Poisson count.
    if (noise_.shot_noise_scale > 0.0) {
        const double scale = noise_.shot_noise_scale;
        for (size_t i = 0; i < rows; ++i) {
            for (size_t j = 0; j < cols; ++j) {
                double &v = measurement_(j, i);
                const double photons = std::max(0.0, v) * scale;
                v = double(rng_.poisson(photons)) / scale;
            }
        }
    }
    // Additive Gaussian read noise: exactly one draw per element,
    // through a stack block, added as Y is written out.
    constexpr size_t kBlock = 512;
    double noise[kBlock];
    size_t drawn = 0, next = 0, owed = rows * cols;
    out->resetShape(int(rows), int(cols));
    for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < cols; ++j) {
            double v = measurement_(j, i);
            if (noise_.read_noise > 0.0) {
                if (next == drawn) {
                    drawn = std::min(kBlock, owed);
                    rng_.fillGaussian(noise, drawn, 0.0,
                                      noise_.read_noise);
                    owed -= drawn;
                    next = 0;
                }
                v += noise[next++];
            }
            out->at(int(i), int(j)) = float(v);
        }
    }
    return Status::ok();
}

void
FlatCamSensor::resetNoise()
{
    rng_ = Rng(noise_.seed);
}

void
imageToMatrixInto(ImageConstView img, Matrix *out)
{
    out->resetShape(size_t(img.height()), size_t(img.width()));
    for (int y = 0; y < img.height(); ++y)
        for (int x = 0; x < img.width(); ++x)
            (*out)(size_t(y), size_t(x)) = img.at(y, x);
}

void
matrixToImageInto(const Matrix &m, Image *out)
{
    out->resetShape(int(m.rows()), int(m.cols()));
    for (size_t y = 0; y < m.rows(); ++y)
        for (size_t x = 0; x < m.cols(); ++x)
            out->at(int(y), int(x)) = float(m(y, x));
}

} // namespace flatcam
} // namespace eyecod
