/**
 * @file
 * Tests of the session-level EyeTracker: blink detection and gaze
 * hold-over (lens and FlatCam), saccade propagation, confidence
 * behaviour, and the filtered-vs-raw improvement on noisy sequences.
 */

#include <gtest/gtest.h>

#include "dataset/sequence.h"
#include "eyetrack/tracker.h"

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

TrackerConfig
lensConfig()
{
    TrackerConfig tc;
    tc.pipeline.camera = CameraKind::Lens;
    return tc;
}

TEST(Tracker, TracksOpenEye)
{
    EyeTracker tracker(lensConfig());
    const auto ren = renderer128();
    tracker.train(ren, 250);
    const auto s = ren.sample(12345);
    const TrackerOutput out = tracker.processFrame(s.image);
    EXPECT_FALSE(out.blink);
    EXPECT_GT(out.confidence, 0.3);
    EXPECT_LT(dataset::angularErrorDeg(out.gaze, s.gaze), 12.0);
}

TEST(Tracker, DetectsBlinkAndHoldsGaze)
{
    EyeTracker tracker(lensConfig());
    const auto ren = renderer128();
    tracker.train(ren, 250);

    dataset::EyeParams p = ren.sampleParams(3);
    p.eyelid_open = 1.0;
    const auto open_frame = ren.render(p, 5);
    const TrackerOutput before =
        tracker.processFrame(open_frame.image);
    ASSERT_FALSE(before.blink);

    // Close the eye: the aperture collapses, no pupil visible.
    p.eyelid_open = 0.05;
    const auto closed_frame = ren.render(p, 5);
    const TrackerOutput blink =
        tracker.processFrame(closed_frame.image);
    EXPECT_TRUE(blink.blink);
    EXPECT_DOUBLE_EQ(blink.confidence, 0.0);
    // Gaze is held at the last good estimate.
    EXPECT_LT(dataset::angularErrorDeg(blink.gaze, before.gaze),
              1e-9);
}

TEST(Tracker, FlatCamBlinkReadsTheRoiCrop)
{
    // The pipeline's view is already the ROI crop. Cropping it again
    // at the ROI's scene offset would read the crop's far corner,
    // where no pupil is, and call every open-eye frame a blink.
    TrackerConfig tc;
    tc.pipeline.camera = CameraKind::FlatCam;
    EyeTracker tracker(tc);
    const auto ren = renderer128();
    tracker.train(ren, 150);

    dataset::EyeParams p = ren.sampleParams(3);
    // Frame 0 segments and crops its full view; the next ones are
    // focus frames that reconstruct only the ROI.
    for (int f = 0; f < 3; ++f) {
        p.eyelid_open = 1.0;
        const TrackerOutput open =
            tracker.processFrame(ren.render(p, 5).image);
        ASSERT_GE(open.roi.x, 16) << f;
        ASSERT_GE(open.roi.y, 16) << f;
        EXPECT_FALSE(open.blink) << f;
        EXPECT_GT(open.confidence, 0.3) << f;
        p.eyelid_open = 0.05;
        const TrackerOutput closed =
            tracker.processFrame(ren.render(p, 5).image);
        EXPECT_TRUE(closed.blink) << f;
        EXPECT_DOUBLE_EQ(closed.confidence, 0.0) << f;
    }
    EXPECT_NEAR(tracker.blinkRate(), 0.5, 1e-9);
}

TEST(Tracker, StreamOpeningOnADroppedFrameSeesNoPupil)
{
    // A dropped first frame has no ROI crop to repeat: the view is
    // empty, which the tracker reads as a closed eye.
    TrackerConfig tc = lensConfig();
    tc.pipeline.faults.drop_rate = 1.0;
    tc.pipeline.faults.last_frame = 0;
    EyeTracker tracker(tc);
    const auto ren = renderer128();
    tracker.train(ren, 120);
    const TrackerOutput dropped =
        tracker.processFrame(ren.sample(3).image);
    EXPECT_TRUE(dropped.blink);
    EXPECT_DOUBLE_EQ(dropped.confidence, 0.0);
    const TrackerOutput next = tracker.processFrame(ren.sample(3).image);
    EXPECT_FALSE(next.blink);
}

TEST(Tracker, RecoversAfterBlink)
{
    EyeTracker tracker(lensConfig());
    const auto ren = renderer128();
    tracker.train(ren, 250);

    dataset::EyeParams p = ren.sampleParams(4);
    p.eyelid_open = 1.0;
    const auto open_frame = ren.render(p, 6);
    tracker.processFrame(open_frame.image);
    p.eyelid_open = 0.05;
    tracker.processFrame(ren.render(p, 6).image);
    p.eyelid_open = 1.0;
    const TrackerOutput after =
        tracker.processFrame(ren.render(p, 6).image);
    EXPECT_FALSE(after.blink);
    EXPECT_GT(after.confidence, 0.3);
}

TEST(Tracker, BlinkRateAccounting)
{
    EyeTracker tracker(lensConfig());
    const auto ren = renderer128();
    tracker.train(ren, 250);
    dataset::EyeParams p = ren.sampleParams(5);
    for (int i = 0; i < 8; ++i) {
        p.eyelid_open = i < 6 ? 1.0 : 0.05;
        tracker.processFrame(ren.render(p, 7).image);
    }
    EXPECT_NEAR(tracker.blinkRate(), 0.25, 1e-9);
    tracker.reset();
    EXPECT_DOUBLE_EQ(tracker.blinkRate(), 0.0);
}

TEST(Tracker, FilteredBeatsRawOnSequences)
{
    EyeTracker tracker(lensConfig());
    const auto ren = renderer128();
    tracker.train(ren, 300);

    dataset::TrajectoryConfig tc;
    tc.frames = 150;
    double raw_err = 0.0, filt_err = 0.0;
    const auto traj = dataset::makeTrajectory(ren, 9, tc);
    for (const auto &p : traj) {
        const auto s = ren.render(p, 11);
        const TrackerOutput out = tracker.processFrame(s.image);
        raw_err += dataset::angularErrorDeg(out.raw_gaze, s.gaze);
        filt_err += dataset::angularErrorDeg(out.gaze, s.gaze);
    }
    EXPECT_LE(filt_err, raw_err * 1.02);
}

TEST(Tracker, FlagsSaccades)
{
    EyeTracker tracker(lensConfig());
    const auto ren = renderer128();
    tracker.train(ren, 250);
    dataset::EyeParams p = ren.sampleParams(6);
    p.yaw_deg = -20.0;
    // Settle on a fixation, then jump far.
    for (int i = 0; i < 5; ++i)
        tracker.processFrame(ren.render(p, 8).image);
    p.yaw_deg = 20.0;
    const TrackerOutput out =
        tracker.processFrame(ren.render(p, 8).image);
    EXPECT_TRUE(out.saccade);
    EXPECT_LT(out.confidence, 0.8);
}

} // namespace
} // namespace eyetrack
} // namespace eyecod
