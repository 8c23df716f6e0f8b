/**
 * @file
 * Bitwise-parity tests of the zero-copy frame spine: every
 * buffer-reusing *Into kernel must write the same bits into a warm,
 * wrongly shaped output as into a fresh one (or as its allocating
 * counterpart, where one exists), and the pipeline's frame arena
 * must stop growing once warm. The memory spine changes where bytes
 * live, never what they are.
 */

#include <gtest/gtest.h>

#include "common/matrix.h"
#include "dataset/synthetic_eye.h"
#include "eyetrack/pipeline.h"
#include "flatcam/imaging.h"
#include "flatcam/mask.h"
#include "flatcam/reconstruction.h"

namespace eyecod {
namespace {

Matrix
patternMatrix(size_t rows, size_t cols, double scale)
{
    Matrix m(rows, cols);
    for (size_t r = 0; r < rows; ++r)
        for (size_t c = 0; c < cols; ++c)
            m(r, c) = scale * (double(r) * 0.37 - double(c) * 0.11);
    return m;
}

TEST(MemorySpine, MultiplyIntoMatchesMultiplyOnWarmOutput)
{
    const Matrix a = patternMatrix(7, 5, 1.0);
    const Matrix b = patternMatrix(5, 9, -0.5);
    const Matrix want = a.multiply(b);
    // A dirty, mis-shaped output must be reshaped and fully
    // overwritten (the kernel zero-fills before accumulating).
    Matrix out(3, 3, 1234.5);
    a.multiplyInto(b, &out);
    ASSERT_EQ(out.rows(), want.rows());
    ASSERT_EQ(out.cols(), want.cols());
    for (size_t r = 0; r < want.rows(); ++r)
        for (size_t c = 0; c < want.cols(); ++c)
            EXPECT_EQ(out(r, c), want(r, c));
    // Second use of the same scratch: still identical.
    a.multiplyInto(b, &out);
    for (size_t r = 0; r < want.rows(); ++r)
        for (size_t c = 0; c < want.cols(); ++c)
            EXPECT_EQ(out(r, c), want(r, c));
}

TEST(MemorySpine, TransposedIntoMatchesTransposed)
{
    const Matrix m = patternMatrix(6, 11, 0.73);
    const Matrix want = m.transposed();
    Matrix out(2, 2, -1.0);
    m.transposedInto(&out);
    ASSERT_EQ(out.rows(), want.rows());
    ASSERT_EQ(out.cols(), want.cols());
    for (size_t r = 0; r < want.rows(); ++r)
        for (size_t c = 0; c < want.cols(); ++c)
            EXPECT_EQ(out(r, c), want(r, c));
}

flatcam::MaskConfig
spineMask()
{
    flatcam::MaskConfig mc;
    mc.scene_rows = mc.scene_cols = 32;
    mc.sensor_rows = mc.sensor_cols = 48;
    mc.mls_order = 6;
    return mc;
}

Image
spineScene(int n)
{
    Image img(n, n);
    for (int y = 0; y < n; ++y)
        for (int x = 0; x < n; ++x)
            img.at(y, x) = 0.1f + 0.7f * float(y * n + x) /
                                      float(n * n);
    return img;
}

TEST(MemorySpine, CaptureFrameIntoMatchesCaptureFrame)
{
    const auto mask = flatcam::makeSeparableMask(spineMask());
    flatcam::FlatCamSensor sensor(mask);
    const Image scene = spineScene(32);

    Image fresh;
    ASSERT_TRUE(
        sensor.captureFrameInto(ImageConstView::of(scene), 0, &fresh)
            .isOk());
    // Same noise stream for each capture: every path must draw
    // identical read-noise samples.
    sensor.resetNoise();
    Image out(1, 1, 5.0f); // warm, wrong shape
    const Status s =
        sensor.captureFrameInto(ImageConstView::of(scene), 0, &out);
    ASSERT_TRUE(s.isOk()) << s.toString();
    EXPECT_EQ(out.data(), fresh.data());

    // A mis-sized scene is a typed error into a fresh or warm output.
    const Image bad(8, 8, 0.0f);
    Image unused;
    EXPECT_FALSE(
        sensor.captureFrameInto(ImageConstView::of(bad), 1, &unused)
            .isOk());
    EXPECT_FALSE(
        sensor.captureFrameInto(ImageConstView::of(bad), 1, &out)
            .isOk());
}

TEST(MemorySpine, ReconstructFrameIntoMatchesReconstruct)
{
    const auto mask = flatcam::makeSeparableMask(spineMask());
    flatcam::FlatCamSensor sensor(mask);
    flatcam::FlatCamReconstructor recon(mask, 1e-3);
    Image meas, meas2;
    ASSERT_TRUE(sensor.captureFrameInto(spineScene(32), 0, &meas).isOk());
    ASSERT_TRUE(
        sensor.captureFrameInto(spineScene(32), 1, &meas2).isOk());

    Image want, want2;
    ASSERT_TRUE(recon.reconstructFrameInto(meas, &want).isOk());
    ASSERT_TRUE(recon.reconstructFrameInto(meas2, &want2).isOk());
    Image out(1, 1, 5.0f); // warm, wrong shape
    const Status s = recon.reconstructFrameInto(meas, &out);
    ASSERT_TRUE(s.isOk()) << s.toString();
    EXPECT_EQ(out.data(), want.data());

    // Reusing the warm output for a second frame stays identical.
    ASSERT_TRUE(recon.reconstructFrameInto(meas2, &out).isOk());
    EXPECT_EQ(out.data(), want2.data());
}

TEST(MemorySpine, RenderIntoMatchesRenderOnReusedSample)
{
    dataset::RenderConfig rc;
    rc.image_size = 64;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);

    dataset::EyeSample reused;
    for (uint64_t i = 0; i < 5; ++i) {
        const dataset::EyeParams p = ren.sampleParams(100 + i);
        const dataset::EyeSample want = ren.render(p, 42 + i);
        // The same EyeSample is the render target every iteration —
        // the serving path's persistent per-session sample.
        ren.renderInto(p, 42 + i, &reused);
        EXPECT_EQ(reused.image.data(), want.image.data()) << i;
        EXPECT_EQ(reused.mask.labels, want.mask.labels) << i;
        EXPECT_EQ(reused.gaze, want.gaze) << "sample " << i;
    }
}

TEST(MemorySpine, PipelineSteadyStateNeverGrowsTheArena)
{
    eyetrack::PipelineConfig pc;
    pc.camera = eyetrack::CameraKind::FlatCam;
    pc.roi_refresh = 5;
    dataset::RenderConfig rc;
    rc.image_size = pc.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    eyetrack::PredictThenFocusPipeline pipe(pc);
    pipe.trainGaze(ren, 80);

    // Warm-up covers one full refresh window (every code path runs).
    for (int f = 0; f < 6; ++f)
        pipe.processFrame(ren.sample(uint64_t(f)).image);
    const size_t warm_blocks = pipe.arena().stats().heap_blocks;
    const size_t warm_bytes = pipe.arena().stats().heap_bytes;
    for (int f = 6; f < 30; ++f)
        pipe.processFrame(ren.sample(uint64_t(f)).image);
    EXPECT_EQ(pipe.arena().stats().heap_blocks, warm_blocks);
    EXPECT_EQ(pipe.arena().stats().heap_bytes, warm_bytes);
    // Every processed frame opened a fresh arena epoch.
    EXPECT_GE(pipe.arena().stats().epochs, 30u);
}

} // namespace
} // namespace eyecod
