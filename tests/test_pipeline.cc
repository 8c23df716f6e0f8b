/**
 * @file
 * Integration tests of the predict-then-focus pipeline: training,
 * the ROI refresh cadence (Sec. 4.3), camera flavours, and tracking
 * accuracy on moving-eye sequences.
 */

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "eyetrack/pipeline.h"

namespace eyecod {
namespace eyetrack {
namespace {

dataset::SyntheticEyeRenderer
renderer128()
{
    dataset::RenderConfig rc;
    rc.image_size = 128;
    return dataset::SyntheticEyeRenderer(rc, 2019);
}

TEST(Pipeline, AcquireLensIsIdentity)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    const auto s = ren.sample(0);
    EXPECT_DOUBLE_EQ(imageMse(pipe.acquire(s.image), s.image), 0.0);
}

TEST(Pipeline, AcquireFlatCamReconstructs)
{
    PipelineConfig pc;
    pc.camera = CameraKind::FlatCam;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    const auto s = ren.sample(1);
    const Image v = pipe.acquire(s.image);
    EXPECT_EQ(v.height(), 128);
    EXPECT_GT(imagePsnr(v, s.image), 20.0);
    EXPECT_GT(imageMse(v, s.image), 0.0); // noisier than lens
}

TEST(Pipeline, RestoreRejectsALastViewThatIsNotAnRoiCrop)
{
    // The snapshot carries the last good frame's ROI crop. A crop of
    // another extent (here from a pipeline with a smaller ROI) is
    // corrupt input: a held frame would hand it on as the view.
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    PipelineConfig small = pc;
    small.roi_height = 40;
    small.roi_width = 72;
    const auto ren = renderer128();
    PredictThenFocusPipeline src(small);
    src.trainGaze(ren, 60);
    src.processFrame(ren.sample(1).image);
    snap::SnapshotWriter w;
    src.saveSnapshot(w);

    PredictThenFocusPipeline dst(pc);
    snap::SnapshotReader bad(w.bytes());
    const Status s = dst.restoreSnapshot(bad);
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot) << s.toString();

    // The same snapshot restores where the extent matches, and so
    // does a pipeline that has no last view yet.
    PredictThenFocusPipeline same(small);
    snap::SnapshotReader good(w.bytes());
    EXPECT_TRUE(same.restoreSnapshot(good).isOk());
    snap::SnapshotWriter fresh;
    PredictThenFocusPipeline(pc).saveSnapshot(fresh);
    snap::SnapshotReader empty(fresh.bytes());
    EXPECT_TRUE(dst.restoreSnapshot(empty).isOk());
}

TEST(Pipeline, RefreshCadenceMatchesConfig)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 10;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 150);

    int refreshes = 0;
    for (int f = 0; f < 35; ++f) {
        const auto r = pipe.processFrame(ren.sample(1000).image);
        if (r.roi_refreshed)
            ++refreshes;
    }
    EXPECT_EQ(refreshes, 4); // frames 0, 10, 20, 30
}

TEST(Pipeline, RoiIsStaleByOneWindow)
{
    // Sec. 4.3: gaze consumes an ROI extracted N..2N frames ago.
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 5;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 150);

    // Eye at position A for the first window, then jumps to B.
    const auto a = ren.sample(11);
    const auto b = ren.sample(17);
    Rect roi_during_a;
    for (int f = 0; f < 5; ++f)
        roi_during_a = pipe.processFrame(a.image).roi;
    // First frame after the jump still uses the window-A ROI.
    const auto r = pipe.processFrame(b.image);
    EXPECT_EQ(r.roi.x, roi_during_a.x);
    EXPECT_EQ(r.roi.y, roi_during_a.y);
}

TEST(Pipeline, ResetRestartsCadence)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 7;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 120);
    pipe.processFrame(ren.sample(0).image);
    pipe.processFrame(ren.sample(0).image);
    pipe.reset();
    const auto r = pipe.processFrame(ren.sample(0).image);
    EXPECT_TRUE(r.roi_refreshed);
}

TEST(Pipeline, TracksStaticGazeAccurately)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 300);

    double err = 0.0;
    const int n = 30;
    for (int i = 0; i < n; ++i) {
        pipe.reset();
        const auto s = ren.sample(50000 + i);
        const auto r = pipe.processFrame(s.image);
        err += dataset::angularErrorDeg(r.gaze, s.gaze);
    }
    EXPECT_LT(err / n, 7.0);
}

TEST(Pipeline, FlatCamAccuracyCloseToLens)
{
    // Tab. 2's headline claim: the FlatCam system does not degrade
    // gaze accuracy much relative to lens-based input.
    const auto ren = renderer128();
    auto eval = [&](CameraKind cam) {
        PipelineConfig pc;
        pc.camera = cam;
        PredictThenFocusPipeline pipe(pc);
        pipe.trainGaze(ren, 300);
        double err = 0.0;
        const int n = 25;
        for (int i = 0; i < n; ++i) {
            pipe.reset();
            const auto s = ren.sample(60000 + i);
            err += dataset::angularErrorDeg(
                pipe.processFrame(s.image).gaze, s.gaze);
        }
        return err / n;
    };
    const double lens = eval(CameraKind::Lens);
    const double flat = eval(CameraKind::FlatCam);
    EXPECT_LT(flat - lens, 1.5); // degrees
}

TEST(Pipeline, TracksMovingSequence)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 25;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 300);

    dataset::TrajectoryConfig tc;
    tc.frames = 75;
    const auto traj = makeTrajectory(ren, 5, tc);
    double err = 0.0;
    for (const auto &p : traj) {
        const auto s = ren.render(p, 777);
        const auto r = pipe.processFrame(s.image);
        err += dataset::angularErrorDeg(r.gaze, s.gaze);
    }
    EXPECT_LT(err / tc.frames, 9.0);
}

TEST(Pipeline, AccountingIsConsistent)
{
    PipelineConfig pc;
    pc.camera = CameraKind::FlatCam;
    pc.roi_refresh = 50;
    PredictThenFocusPipeline pipe(pc);
    EXPECT_GT(pipe.gazeMacsPerFrame(), 0);
    EXPECT_DOUBLE_EQ(pipe.segmentationRatePerFrame(), 0.02);
    EXPECT_GT(pipe.reconMacsPerFrame(), 0);

    PipelineConfig lens = pc;
    lens.camera = CameraKind::Lens;
    PredictThenFocusPipeline lens_pipe(lens);
    EXPECT_EQ(lens_pipe.reconMacsPerFrame(), 0);
}

} // namespace
} // namespace eyetrack
} // namespace eyecod
