/**
 * @file
 * Tests of the FlatCam optical substrate: MLS mask generation (Eq. 1
 * transfer matrices), the forward imaging model, the Tikhonov
 * reconstruction (Eq. 2), the visual-privacy property, and the
 * sensing-processing interface.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <limits>
#include <memory>

#include "common/snapshot.h"
#include "eyetrack/pipeline.h"
#include "flatcam/imaging.h"
#include "flatcam/mask.h"
#include "flatcam/optical_interface.h"
#include "flatcam/optics.h"
#include "flatcam/reconstruction.h"

namespace eyecod {
namespace flatcam {
namespace {

MaskConfig
smallMask()
{
    MaskConfig mc;
    mc.scene_rows = mc.scene_cols = 32;
    mc.sensor_rows = mc.sensor_cols = 48;
    mc.mls_order = 6;
    mc.fabrication_noise = 0.0;
    return mc;
}

/** A test scene with structure (gradient + bright square). */
Image
testScene(int n)
{
    Image img(n, n);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            img.at(y, x) = 0.2f + 0.5f * float(x) / float(n);
    for (int y = n / 4; y < n / 2; ++y)
        for (int x = n / 4; x < n / 2; ++x)
            img.at(y, x) = 0.9f;
    return img;
}

/** Parameterized MLS properties over LFSR orders. */
class MlsOrders : public ::testing::TestWithParam<int>
{
};

TEST_P(MlsOrders, HasMaximalLength)
{
    const int order = GetParam();
    const std::vector<int> seq = mlsSequence(order);
    EXPECT_EQ(seq.size(), (size_t(1) << order) - 1);
}

TEST_P(MlsOrders, IsBalanced)
{
    // A maximal-length sequence has exactly 2^(n-1) ones.
    const int order = GetParam();
    const std::vector<int> seq = mlsSequence(order);
    long ones = 0;
    for (int v : seq)
        ones += v > 0 ? 1 : 0;
    EXPECT_EQ(ones, long(1) << (order - 1));
}

TEST_P(MlsOrders, AutocorrelationIsFlat)
{
    // MLS autocorrelation: len at lag 0, -1 at every other lag.
    const int order = GetParam();
    const std::vector<int> seq = mlsSequence(order);
    const long n = long(seq.size());
    for (long lag : {1L, 2L, n / 2, n - 1}) {
        long acc = 0;
        for (long i = 0; i < n; ++i)
            acc += seq[size_t(i)] * seq[size_t((i + lag) % n)];
        EXPECT_EQ(acc, -1) << "order " << order << " lag " << lag;
    }
}

INSTANTIATE_TEST_SUITE_P(Orders, MlsOrders,
                         ::testing::Values(3, 5, 6, 8, 9, 10, 12));

TEST(Mask, TransferMatrixShapes)
{
    const SeparableMask m = makeSeparableMask(smallMask());
    EXPECT_EQ(m.phiL.rows(), 48u);
    EXPECT_EQ(m.phiL.cols(), 32u);
    EXPECT_EQ(m.phiR.rows(), 48u);
    EXPECT_EQ(m.phiR.cols(), 32u);
}

TEST(Mask, WellConditionedForTikhonov)
{
    const SeparableMask m = makeSeparableMask(smallMask());
    const Svd s = computeSvd(m.phiL);
    EXPECT_GT(s.s.back(), 1e-3);
    EXPECT_LT(s.s.front() / s.s.back(), 500.0);
}

TEST(Mask, FabricationNoisePerturbsEntries)
{
    MaskConfig mc = smallMask();
    const SeparableMask clean = makeSeparableMask(mc);
    mc.fabrication_noise = 0.02;
    const SeparableMask noisy = makeSeparableMask(mc);
    const double diff =
        clean.phiL.sub(noisy.phiL).frobeniusNorm();
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff, 0.1 * clean.phiL.frobeniusNorm());
}

TEST(Imaging, ForwardModelIsLinear)
{
    SensorNoise nz;
    nz.read_noise = 0.0;
    const FlatCamSensor cam(makeSeparableMask(smallMask()), nz);
    const Image a = testScene(32);
    Image b(32, 32, 0.25f);
    Image sum(32, 32);
    for (size_t i = 0; i < sum.size(); ++i)
        sum.data()[i] = a.data()[i] + b.data()[i];
    Image ya, yb, ysum;
    ASSERT_TRUE(cam.captureFrameInto(a, 0, &ya).isOk());
    ASSERT_TRUE(cam.captureFrameInto(b, 1, &yb).isOk());
    ASSERT_TRUE(cam.captureFrameInto(sum, 2, &ysum).isOk());
    for (size_t i = 0; i < ysum.size(); ++i)
        EXPECT_NEAR(ysum.data()[i], ya.data()[i] + yb.data()[i],
                    1e-4);
}

TEST(Imaging, NoiseChangesMeasurement)
{
    SensorNoise nz;
    nz.read_noise = 0.01;
    const FlatCamSensor cam(makeSeparableMask(smallMask()), nz);
    const Image scene = testScene(32);
    Image y1, y2;
    ASSERT_TRUE(cam.captureFrameInto(scene, 0, &y1).isOk());
    ASSERT_TRUE(cam.captureFrameInto(scene, 1, &y2).isOk());
    EXPECT_GT(imageMse(y1, y2), 0.0);
}

TEST(Imaging, ShotNoiseOnABlackSceneIsFinite)
{
    // A black scene measures 0 everywhere, so every shot-noise draw
    // has mean 0, which the library's Poisson distribution rejects.
    SensorNoise nz;
    nz.shot_noise_scale = 1000.0;
    const FlatCamSensor cam(makeSeparableMask(smallMask()), nz);
    Image y;
    ASSERT_TRUE(cam.captureFrameInto(Image(32, 32, 0.0f), 0, &y).isOk());
    for (float v : y.data())
        ASSERT_TRUE(std::isfinite(v));
}

TEST(Imaging, MeasurementDoesNotResembleScene)
{
    // The visual-privacy property: raw FlatCam measurements carry
    // almost no spatial resemblance to the scene.
    SensorNoise nz;
    nz.read_noise = 0.0;
    const FlatCamSensor cam(makeSeparableMask(smallMask()), nz);
    const Image scene = testScene(32);
    Image y;
    ASSERT_TRUE(cam.captureFrameInto(scene, 0, &y).isOk());
    const Image y_crop = y.cropped(Rect{0, 0, 32, 32});
    EXPECT_LT(std::fabs(imageNcc(scene, y_crop)), 0.5);
}

TEST(Reconstruction, NearExactWithoutNoise)
{
    const SeparableMask mask = makeSeparableMask(smallMask());
    SensorNoise nz;
    nz.read_noise = 0.0;
    const FlatCamSensor cam(mask, nz);
    const FlatCamReconstructor rec(mask, 1e-6);
    const Image scene = testScene(32);
    Image y, out;
    ASSERT_TRUE(cam.captureFrameInto(scene, 0, &y).isOk());
    ASSERT_TRUE(rec.reconstructFrameInto(y, &out).isOk());
    EXPECT_GT(imagePsnr(out, scene), 40.0);
}

TEST(Reconstruction, ToleratesSensorNoise)
{
    const SeparableMask mask = makeSeparableMask(smallMask());
    SensorNoise nz;
    nz.read_noise = 0.005;
    const FlatCamSensor cam(mask, nz);
    const FlatCamReconstructor rec(mask, 1e-3);
    const Image scene = testScene(32);
    Image y, out;
    ASSERT_TRUE(cam.captureFrameInto(scene, 0, &y).isOk());
    ASSERT_TRUE(rec.reconstructFrameInto(y, &out).isOk());
    EXPECT_GT(imagePsnr(out, scene), 20.0);
}

TEST(Reconstruction, NoisierThanLens)
{
    // The property Tab. 3 depends on: FlatCam reconstructions are a
    // degraded version of the scene, not a perfect copy.
    const SeparableMask mask = makeSeparableMask(smallMask());
    SensorNoise nz;
    nz.read_noise = 0.01;
    const FlatCamSensor cam(mask, nz);
    const FlatCamReconstructor rec(mask, 1e-3);
    const Image scene = testScene(32);
    Image y, out;
    ASSERT_TRUE(cam.captureFrameInto(scene, 0, &y).isOk());
    ASSERT_TRUE(rec.reconstructFrameInto(y, &out).isOk());
    EXPECT_GT(imageMse(out, scene), 0.0);
    EXPECT_GT(imageNcc(out, scene), 0.8); // but still recognizable
}

TEST(Reconstruction, MacsAccountingPositive)
{
    const SeparableMask mask = makeSeparableMask(smallMask());
    const FlatCamReconstructor rec(mask, 1e-4);
    EXPECT_GT(rec.macsPerFrame(), 0);
    EXPECT_EQ(rec.sceneRows(), 32);
    EXPECT_EQ(rec.sceneCols(), 32);
}

TEST(ReconstructionDeathTest, RejectsNonFiniteOrNonPositiveEpsilon)
{
    // NaN slips past a plain `eps <= 0` test and would turn every
    // reconstructed pixel NaN; +inf would turn every pixel 0.
    const SeparableMask mask = makeSeparableMask(smallMask());
    const double not_a_number = std::nan("");
    const double infinite = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(FlatCamReconstructor(mask, not_a_number), "epsilon");
    EXPECT_DEATH(FlatCamReconstructor(mask, infinite), "epsilon");
    EXPECT_DEATH(FlatCamReconstructor(mask, 0.0), "epsilon");
    EXPECT_DEATH(FlatCamReconstructor(mask, -1e-3), "epsilon");
    EXPECT_DEATH((void)sharedOptics(smallMask(), not_a_number),
                 "epsilon");
    EXPECT_DEATH((void)sharedOptics(smallMask(), infinite), "epsilon");
}

TEST(ReconOptics, FilterIsTheTikhonovGainBitForBit)
{
    const SeparableMask mask = makeSeparableMask(smallMask());
    const double eps = 1e-3;
    const ReconOptics op(mask, eps);
    const Svd left = computeSvd(mask.phiL);
    const Svd right = computeSvd(mask.phiR);
    ASSERT_EQ(op.filter.rows(), left.s.size());
    ASSERT_EQ(op.filter.cols(), right.s.size());
    for (size_t i = 0; i < op.filter.rows(); ++i) {
        for (size_t j = 0; j < op.filter.cols(); ++j) {
            const double sl = left.s[i];
            const double sr = right.s[j];
            EXPECT_EQ(op.filter(i, j),
                      sl * sr / (sl * sl * sr * sr + eps));
        }
    }
}

TEST(SharedOptics, OneLiveCopyPerMaskAndEpsilon)
{
    MaskConfig other = smallMask();
    other.seed ^= 1;
    std::shared_ptr<const Optics> a = sharedOptics(smallMask(), 1e-3);
    EXPECT_EQ(sharedOptics(smallMask(), 1e-3), a);
    EXPECT_NE(sharedOptics(smallMask(), 2e-3), a);
    EXPECT_NE(sharedOptics(other, 1e-3), a);
    EXPECT_EQ(a.use_count(), 1); // the temporaries are gone

    // Once the last holder lets go, the copy is released, not cached.
    const std::weak_ptr<const Optics> watch = a;
    const auto b = sharedOptics(other, 1e-3);
    a.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(sharedOptics(other, 1e-3), b);
}

TEST(SharedOptics, SharedAndPrivateOpticsAgreeBitwise)
{
    SensorNoise nz;
    nz.read_noise = 0.01;
    const auto optics = sharedOptics(smallMask(), 1e-3);
    const FlatCamSensor shared_cam(
        std::shared_ptr<const SensorOptics>(optics, &optics->sensor),
        nz);
    const FlatCamReconstructor shared_rec(
        std::shared_ptr<const ReconOptics>(optics, &optics->recon));
    const SeparableMask mask = makeSeparableMask(smallMask());
    const FlatCamSensor private_cam(mask, nz);
    const FlatCamReconstructor private_rec(mask, 1e-3);

    const Image scene = testScene(32);
    Image y_shared, y_private, x_shared, x_private;
    ASSERT_TRUE(shared_cam.captureFrameInto(scene, 0, &y_shared).isOk());
    ASSERT_TRUE(
        private_cam.captureFrameInto(scene, 0, &y_private).isOk());
    EXPECT_EQ(y_shared.data(), y_private.data());
    ASSERT_TRUE(shared_rec.reconstructFrameInto(y_shared, &x_shared).isOk());
    ASSERT_TRUE(
        private_rec.reconstructFrameInto(y_shared, &x_private).isOk());
    EXPECT_EQ(x_shared.data(), x_private.data());
    EXPECT_EQ(shared_rec.macsPerFrame(), private_rec.macsPerFrame());
    EXPECT_EQ(shared_rec.epsilon(), 1e-3);
    // The sensor and the reconstructor each hold one reference.
    EXPECT_EQ(optics.use_count(), 3);
}

/** FNV-1a hash of an image's pixel bits. */
uint64_t
hashBits(const Image &img)
{
    return snap::fnv1a(
        reinterpret_cast<const uint8_t *>(img.data().data()),
        img.size() * sizeof(float));
}

TEST(FlatCamGolden, PipelineCaptureAndReconstructionArePinned)
{
    // Every other determinism test compares two runs of one binary,
    // so a toolchain change that moves every bit (FMA contraction in
    // the matrix kernel, another standard library's
    // normal_distribution for the read noise) passes them all. These
    // FNV-1a hashes of one scene's measurement and reconstruction,
    // through the pipeline's default optics and noise, are the
    // values of x86-64 libstdc++/glibc.
    const eyetrack::PipelineConfig cfg;
    const auto optics = sharedOptics(eyetrack::flatcamMaskConfig(cfg),
                                     cfg.recon_epsilon);
    const FlatCamSensor cam(
        std::shared_ptr<const SensorOptics>(optics, &optics->sensor),
        cfg.sensor_noise);
    const FlatCamReconstructor rec(
        std::shared_ptr<const ReconOptics>(optics, &optics->recon));
    Image y, x;
    ASSERT_TRUE(cam.captureFrameInto(testScene(cfg.scene_size), 0, &y)
                    .isOk());
    ASSERT_TRUE(rec.reconstructFrameInto(y, &x).isOk());
    EXPECT_EQ(hashBits(y), 0x38fcf06255344ab1u) << std::hex << hashBits(y);
    EXPECT_EQ(hashBits(x), 0x599a24be56a5212du) << std::hex << hashBits(x);
}

TEST(FocusReconstruction, RoiIsTheCropOfTheFullFrameBitForBit)
{
    // A focus frame reconstructs only its ROI. Each of its pixels
    // sums the terms of the full product in the same order, so it
    // must memcmp-equal the edge-clamped crop of the full frame:
    // inside the scene, across each edge, at a corner, wholly
    // outside, and over the whole extent. Pipeline optics and noise,
    // so both products run the kernel's panels and its column tail.
    const eyetrack::PipelineConfig cfg;
    const auto optics = sharedOptics(eyetrack::flatcamMaskConfig(cfg),
                                     cfg.recon_epsilon);
    const FlatCamSensor cam(
        std::shared_ptr<const SensorOptics>(optics, &optics->sensor),
        cfg.sensor_noise);
    const FlatCamReconstructor rec(
        std::shared_ptr<const ReconOptics>(optics, &optics->recon));
    const int n = cfg.scene_size;
    const int h = cfg.roi_height;
    const int w = cfg.roi_width;
    Image y, full, want, roi_out;
    ASSERT_TRUE(cam.captureFrameInto(testScene(n), 0, &y).isOk());
    ASSERT_TRUE(rec.reconstructFrameInto(y, &full).isOk());
    const struct
    {
        const char *name;
        Rect r;
    } cases[] = {
        {"inside", Rect{24, 40, w, h}},
        {"left edge", Rect{-11, 40, w, h}},
        {"right edge", Rect{n - w + 9, 40, w, h}},
        {"top edge", Rect{24, -7, w, h}},
        {"bottom edge", Rect{24, n - h + 13, w, h}},
        {"corner", Rect{n - w + 5, -3, w, h}},
        {"outside", Rect{-w - 4, n + 2, w, h}},
        {"whole extent", Rect{0, 0, n, n}},
    };
    for (const auto &c : cases) {
        // One output image across the cases, as the pipeline reuses
        // its result slot.
        ASSERT_TRUE(rec.reconstructFrameInto(y, c.r, &roi_out).isOk())
            << c.name;
        full.croppedInto(c.r, &want);
        ASSERT_EQ(roi_out.height(), c.r.height) << c.name;
        ASSERT_EQ(roi_out.width(), c.r.width) << c.name;
        EXPECT_EQ(std::memcmp(roi_out.data().data(), want.data().data(),
                              want.size() * sizeof(float)),
                  0)
            << c.name;
    }
}

TEST(Imaging, NonFiniteScenePixelPoisonsTheMeasurement)
{
    // The forward model skips PhiR's zeros. That changes no sum only
    // while every skipped term is a zero times a finite value, so a
    // NaN scene pixel must still reach the measurement (in fewer
    // pixels than a product that multiplies the zeros), and the
    // reconstruction must refuse it, whole frame or ROI.
    const eyetrack::PipelineConfig cfg;
    const auto optics = sharedOptics(eyetrack::flatcamMaskConfig(cfg),
                                     cfg.recon_epsilon);
    const FlatCamSensor cam(
        std::shared_ptr<const SensorOptics>(optics, &optics->sensor),
        cfg.sensor_noise);
    const FlatCamReconstructor rec(
        std::shared_ptr<const ReconOptics>(optics, &optics->recon));
    Image scene = testScene(cfg.scene_size);
    scene.at(70, 33) = std::numeric_limits<float>::quiet_NaN();
    Image y, x;
    ASSERT_TRUE(cam.captureFrameInto(scene, 0, &y).isOk());
    long nonfinite = 0;
    for (float v : y.data())
        nonfinite += !std::isfinite(v);
    EXPECT_GT(nonfinite, 0);
    const Status full = rec.reconstructFrameInto(y, &x);
    EXPECT_EQ(full.code(), ErrorCode::NonFinite) << full.toString();
    const Status roi = rec.reconstructFrameInto(
        y, Rect{24, 40, cfg.roi_width, cfg.roi_height}, &x);
    EXPECT_EQ(roi.code(), ErrorCode::NonFinite) << roi.toString();
}

TEST(OpticalInterface, ReducesCommunication)
{
    const OpticalFirstLayer layer;
    const long long raw = OpticalFirstLayer::rawBytes(256, 256);
    const long long feat = layer.featureBytes(256, 256);
    EXPECT_LT(feat, raw);
}

TEST(OpticalInterface, RemovesFirstLayerCompute)
{
    const OpticalFirstLayer layer;
    EXPECT_GT(layer.removedMacs(256, 256), 0);
}

TEST(OpticalInterface, DerivativeChannelsIgnoreConstants)
{
    OpticalLayerConfig cfg;
    cfg.response_noise = 0.0;
    const OpticalFirstLayer layer(cfg);
    const Image flat(64, 64, 0.5f);
    const auto maps = layer.apply(flat);
    ASSERT_EQ(int(maps.size()), cfg.out_channels);
    // Oriented-derivative channels respond ~0 to a constant scene.
    for (int c = 0; c < cfg.out_channels; ++c) {
        if (c % 4 == 3)
            continue; // centre-surround channel
        // Interior pixels (away from the clamped border).
        EXPECT_NEAR(maps[size_t(c)].at(8, 8), 0.0f, 1e-4);
    }
}

TEST(OpticalInterface, OutputShapeFollowsStride)
{
    OpticalLayerConfig cfg;
    cfg.stride = 4;
    const OpticalFirstLayer layer(cfg);
    const auto maps = layer.apply(Image(64, 64, 0.1f));
    EXPECT_EQ(maps[0].height(), 16);
    EXPECT_EQ(maps[0].width(), 16);
}

} // namespace
} // namespace flatcam
} // namespace eyecod
