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
    scene_mat_.resetShape(size_t(sceneRows()), size_t(sceneCols()));
    left_prod_.resetShape(size_t(sensorRows()), size_t(sceneCols()));
    measurement_.resetShape(size_t(sensorRows()), size_t(sensorCols()));
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

    imageToMatrixInto(scene, &scene_mat_);
    optics_->mask.phiL.multiplyInto(scene_mat_, &left_prod_);
    left_prod_.multiplyInto(optics_->phi_r_t, &measurement_);

    // Shot noise: model each measurement as a scaled Poisson count.
    if (noise_.shot_noise_scale > 0.0) {
        const double scale = noise_.shot_noise_scale;
        for (double &v : measurement_.data()) {
            const double photons = std::max(0.0, v) * scale;
            v = double(rng_.poisson(photons)) / scale;
        }
    }
    // Additive Gaussian read noise: exactly one draw per element, in
    // element order, through a stack block.
    if (noise_.read_noise > 0.0) {
        constexpr size_t kBlock = 512;
        double noise[kBlock];
        double *v = measurement_.data().data();
        const size_t count = measurement_.data().size();
        for (size_t i = 0; i < count; i += kBlock) {
            const size_t len = std::min(kBlock, count - i);
            rng_.fillGaussian(noise, len, 0.0, noise_.read_noise);
            for (size_t j = 0; j < len; ++j)
                v[i + j] += noise[j];
        }
    }
    matrixToImageInto(measurement_, out);
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
