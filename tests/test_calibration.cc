/**
 * @file
 * Tests of the separable FlatCam calibration: line-pattern captures
 * must recover transfer matrices whose product matches the physical
 * device, and reconstruction through the calibrated mask must work.
 */

#include <gtest/gtest.h>

#include "flatcam/calibration.h"
#include "flatcam/reconstruction.h"

namespace eyecod {
namespace flatcam {
namespace {

MaskConfig
smallMask(double fabrication_noise = 0.01)
{
    MaskConfig mc;
    mc.scene_rows = mc.scene_cols = 24;
    mc.sensor_rows = mc.sensor_cols = 36;
    mc.mls_order = 6;
    mc.fabrication_noise = fabrication_noise;
    return mc;
}

Image
probeScene(int n)
{
    Image img(n, n);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            img.at(y, x) =
                0.3f + 0.4f * float((x / 4 + y / 4) % 2);
    return img;
}

TEST(Calibration, RecoversProductWithoutNoise)
{
    const SeparableMask truth = makeSeparableMask(smallMask());
    SensorNoise nz;
    nz.read_noise = 0.0;
    const FlatCamSensor sensor(truth, nz);
    const CalibrationResult cal =
        calibrateSeparable(sensor, &truth);
    EXPECT_LT(cal.product_error, 1e-6);
}

TEST(Calibration, UsesOnePlusRowsPlusColumnsCaptures)
{
    const SeparableMask truth = makeSeparableMask(smallMask());
    const FlatCamSensor sensor(truth, {});
    const CalibrationResult cal = calibrateSeparable(sensor);
    EXPECT_EQ(cal.captures_used, 1 + 24 + 24);
}

TEST(Calibration, ToleratesSensorNoise)
{
    const SeparableMask truth = makeSeparableMask(smallMask());
    SensorNoise nz;
    nz.read_noise = 0.002;
    const FlatCamSensor sensor(truth, nz);
    const CalibrationResult cal =
        calibrateSeparable(sensor, &truth);
    EXPECT_LT(cal.product_error, 0.05);
}

TEST(Calibration, NoiseDegradesEstimate)
{
    const SeparableMask truth = makeSeparableMask(smallMask());
    SensorNoise lo;
    lo.read_noise = 0.001;
    SensorNoise hi;
    hi.read_noise = 0.02;
    const CalibrationResult cal_lo = calibrateSeparable(
        FlatCamSensor(truth, lo), &truth);
    const CalibrationResult cal_hi = calibrateSeparable(
        FlatCamSensor(truth, hi), &truth);
    EXPECT_LT(cal_lo.product_error, cal_hi.product_error);
}

TEST(Calibration, CalibratedMaskReconstructs)
{
    // The whole point: reconstruct through the *estimated* mask.
    const SeparableMask truth = makeSeparableMask(smallMask());
    SensorNoise nz;
    nz.read_noise = 0.001;
    const FlatCamSensor sensor(truth, nz);
    const CalibrationResult cal = calibrateSeparable(sensor);

    const FlatCamReconstructor recon(cal.mask, 1e-3);
    const Image scene = probeScene(24);
    Image y, out;
    ASSERT_TRUE(sensor.captureFrameInto(scene, 0, &y).isOk());
    ASSERT_TRUE(recon.reconstructFrameInto(y, &out).isOk());
    EXPECT_GT(imagePsnr(out, scene), 18.0);
    EXPECT_GT(imageNcc(out, scene), 0.85);
}

TEST(Calibration, HandlesFabricationPerturbation)
{
    // Calibration is what absorbs mask fabrication error: the
    // estimate tracks the *perturbed* device, not the design.
    MaskConfig design_cfg = smallMask(0.0);
    const SeparableMask design = makeSeparableMask(design_cfg);
    MaskConfig device_cfg = smallMask(0.05);
    const SeparableMask device = makeSeparableMask(device_cfg);
    SensorNoise nz;
    nz.read_noise = 0.0;
    const FlatCamSensor sensor(device, nz);
    const CalibrationResult cal =
        calibrateSeparable(sensor, &device);
    // Estimate matches the device far better than the design does.
    Rng rng(5);
    Matrix x(24, 24);
    for (double &v : x.data())
        v = rng.uniform();
    const Matrix ref =
        device.phiL.multiply(x).multiply(device.phiR.transposed());
    const Matrix via_design =
        design.phiL.multiply(x).multiply(design.phiR.transposed());
    const double design_err =
        via_design.sub(ref).frobeniusNorm() / ref.frobeniusNorm();
    EXPECT_LT(cal.product_error, 0.2 * design_err);
}

} // namespace
} // namespace flatcam
} // namespace eyecod
