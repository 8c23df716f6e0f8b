/**
 * @file
 * Degradation state-machine tests: determinism under a fixed fault
 * schedule, full state restoration on reset(), the ROI fallback
 * chain (predicted -> last-known-good -> centered crop), the
 * stale-ROI watchdog's capped exponential backoff, and two pinned
 * FlatCam streams, one faulted and one clean.
 */

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "dataset/sequence.h"
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

/** Full bitwise comparison of two FrameResults. */
void
expectIdentical(const PredictThenFocusPipeline::FrameResult &a,
                const PredictThenFocusPipeline::FrameResult &b,
                int frame)
{
    for (int c = 0; c < 3; ++c)
        ASSERT_EQ(a.gaze[size_t(c)], b.gaze[size_t(c)])
            << "frame " << frame << " gaze[" << c << "]";
    ASSERT_EQ(a.roi_refreshed, b.roi_refreshed) << "frame " << frame;
    ASSERT_EQ(a.roi.x, b.roi.x) << "frame " << frame;
    ASSERT_EQ(a.roi.y, b.roi.y) << "frame " << frame;
    ASSERT_EQ(a.roi.width, b.roi.width) << "frame " << frame;
    ASSERT_EQ(a.roi.height, b.roi.height) << "frame " << frame;
    ASSERT_EQ(a.view.size(), b.view.size()) << "frame " << frame;
    for (size_t i = 0; i < a.view.size(); ++i) {
        const float av = a.view.data()[i];
        const float bv = b.view.data()[i];
        ASSERT_TRUE(av == bv || (std::isnan(av) && std::isnan(bv)))
            << "frame " << frame << " pixel " << i;
    }
    ASSERT_EQ(a.health.degraded, b.health.degraded)
        << "frame " << frame;
    ASSERT_EQ(a.health.frame_dropped, b.health.frame_dropped)
        << "frame " << frame;
    ASSERT_EQ(a.health.roi_source, b.health.roi_source)
        << "frame " << frame;
    ASSERT_EQ(a.health.faults_seen, b.health.faults_seen)
        << "frame " << frame;
    ASSERT_EQ(a.health.gaze_held, b.health.gaze_held)
        << "frame " << frame;
    ASSERT_EQ(a.health.recovery_latency, b.health.recovery_latency)
        << "frame " << frame;
}

TEST(Degradation, FaultedRunIsBitwiseReproducibleAfterReset)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 8;
    pc.faults = flatcam::FaultConfig::mixed(0.15, 0xdeed);
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 150);

    const int frames = 40;
    std::vector<PredictThenFocusPipeline::FrameResult> first;
    for (int f = 0; f < frames; ++f)
        first.push_back(pipe.processFrame(ren.sample(700 + f).image));
    const HealthStats stats_first = pipe.healthStats();

    // Same seed + same fault schedule after reset(): the FrameResult
    // sequence must replay bitwise-identically.
    pipe.reset();
    for (int f = 0; f < frames; ++f) {
        const auto r = pipe.processFrame(ren.sample(700 + f).image);
        expectIdentical(first[size_t(f)], r, f);
    }
    EXPECT_EQ(pipe.healthStats().degraded_frames,
              stats_first.degraded_frames);
    EXPECT_EQ(pipe.healthStats().dropped_frames,
              stats_first.dropped_frames);
    EXPECT_EQ(pipe.healthStats().fault_counts,
              stats_first.fault_counts);
}

TEST(Degradation, FlatCamFaultedRunIsReproducibleAfterReset)
{
    PipelineConfig pc;
    pc.camera = CameraKind::FlatCam;
    pc.roi_refresh = 6;
    pc.faults = flatcam::FaultConfig::mixed(0.2, 0xcafe);
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 150);
    // Training consumes the sensor noise stream; reset() rewinds it,
    // so replay determinism is defined from a reset() point.
    pipe.reset();

    const int frames = 18;
    std::vector<PredictThenFocusPipeline::FrameResult> first;
    for (int f = 0; f < frames; ++f)
        first.push_back(pipe.processFrame(ren.sample(900 + f).image));
    // reset() also rewinds the sensor noise stream, so even the
    // FlatCam measurement noise replays identically.
    pipe.reset();
    for (int f = 0; f < frames; ++f) {
        const auto r = pipe.processFrame(ren.sample(900 + f).image);
        expectIdentical(first[size_t(f)], r, f);
    }
}

/** FlatCam with a dense fault schedule: every kind, NaN poison, 8%
 *  drops. */
PipelineConfig
faultedConfig()
{
    PipelineConfig pc;
    pc.camera = CameraKind::FlatCam;
    pc.roi_refresh = 8;
    pc.faults.drop_rate = 0.08;
    pc.faults.dead_block_rate = 0.1;
    pc.faults.hot_block_rate = 0.1;
    pc.faults.burst_noise_rate = 0.1;
    pc.faults.nan_rate = 0.06;
    pc.faults.saturation_rate = 0.1;
    return pc;
}

/** Appends the object bits of @p v to @p out. */
template <class T>
void
appendBits(std::vector<uint8_t> &out, const T &v)
{
    const auto *p = reinterpret_cast<const uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(T));
}

/** FNV-1a hash of a byte stream. */
uint64_t
hashBytes(const std::vector<uint8_t> &bytes)
{
    return snap::fnv1a(bytes.data(), bytes.size());
}

/**
 * The bits of a pipeline stream that a pin hashes: gaze, ROIs,
 * health records, and the pixels gaze reads on every frame that was
 * not dropped.
 */
struct StreamBits
{
    std::vector<uint8_t> gaze, roi, health, pixels;

    void
    add(const PredictThenFocusPipeline::FrameResult &r)
    {
        appendBits(gaze, r.gaze);
        appendBits(roi, r.roi_refreshed);
        appendBits(roi, r.roi.x);
        appendBits(roi, r.roi.y);
        appendBits(roi, r.roi.width);
        appendBits(roi, r.roi.height);
        const FrameHealth &h = r.health;
        appendBits(health, h.degraded);
        appendBits(health, h.frame_dropped);
        appendBits(health, h.roi_source);
        appendBits(health, h.faults_seen);
        appendBits(health, h.nonfinite_view);
        appendBits(health, h.roi_rejected);
        appendBits(health, h.watchdog_retry);
        appendBits(health, h.gaze_held);
        appendBits(health, h.roi_confidence);
        appendBits(health, h.recovery_latency);
        if (h.frame_dropped)
            return;
        const auto *px =
            reinterpret_cast<const uint8_t *>(r.view.data().data());
        pixels.insert(pixels.end(), px,
                      px + r.view.size() * sizeof(float));
    }
};

TEST(Degradation, FaultedFlatCamStreamIsPinned)
{
    // The reset-replay tests compare two runs of one binary, so a
    // change that moves every faulted frame the same way in both
    // runs (a read-noise draw on a dropped frame shifts every later
    // view) passes them. These FNV-1a hashes pin the stream itself:
    // gaze bits, ROIs, health records and the ROI pixels gaze reads,
    // over 48 frames through drops, every sensor fault and NaN
    // poison, straight after training (x86-64 libstdc++/glibc
    // values).
    const PipelineConfig pc = faultedConfig();
    const auto ren = renderer128();
    PredictThenFocusPipeline pipe(pc);
    pipe.trainGaze(ren, 80);

    // The schedule is a pure function of the frame index, so the
    // test can read which kinds reached a frame that was kept.
    const flatcam::FaultInjector plan(pc.faults);
    std::array<bool, flatcam::kNumFaultKinds> kept{};
    StreamBits bits;
    for (int f = 0; f < 48; ++f) {
        const auto &r =
            pipe.processFrame(ren.sample(uint64_t(9000 + f)).image);
        bits.add(r);
        const flatcam::FrameFaults planned = plan.plan(f);
        for (int k = 0; k < flatcam::kNumFaultKinds; ++k)
            kept[size_t(k)] = kept[size_t(k)] ||
                              (planned.active[size_t(k)] &&
                               !r.health.frame_dropped);
    }
    // Every kind reaches the hashed bits: drops as held frames, and
    // each other kind on a frame that was kept, so its pixels are in
    // the pixel hash.
    const HealthStats &stats = pipe.healthStats();
    EXPECT_GT(stats.fault_counts[size_t(flatcam::FaultKind::DroppedFrame)],
              0);
    EXPECT_GT(stats.dropped_frames, 0);
    for (int k = 1; k < flatcam::kNumFaultKinds; ++k)
        EXPECT_TRUE(kept[size_t(k)])
            << flatcam::faultKindName(flatcam::FaultKind(k));
    EXPECT_GT(stats.nonfinite_views, 0);
    EXPECT_EQ(hashBytes(bits.gaze), 0x22860476ea2bef9bu)
        << std::hex << hashBytes(bits.gaze);
    EXPECT_EQ(hashBytes(bits.roi), 0xbbdce76e1af69172u)
        << std::hex << hashBytes(bits.roi);
    EXPECT_EQ(hashBytes(bits.health), 0x5151d34312bdce8du)
        << std::hex << hashBytes(bits.health);
    EXPECT_EQ(hashBytes(bits.pixels), 0x80b015e5e111afe1u)
        << std::hex << hashBytes(bits.pixels);
}

TEST(Degradation, CleanFlatCamStreamIsPinned)
{
    // The faulted pin above takes a fault-free frame only now and
    // then. This one pins the clean path: the default FlatCam
    // pipeline at a refresh of 50, over 120 frames of one moving
    // trajectory (three segmentations, the rest gaze on the held
    // ROI). x86-64 libstdc++/glibc values.
    PipelineConfig pc;
    pc.roi_refresh = 50;
    const auto ren = renderer128();
    PredictThenFocusPipeline pipe(pc);
    pipe.trainGaze(ren, 80);

    dataset::TrajectoryConfig tc;
    tc.frames = 120;
    const std::vector<dataset::EyeParams> traj =
        dataset::makeTrajectory(ren, 7, tc);
    dataset::EyeSample sample;
    StreamBits bits;
    for (size_t f = 0; f < traj.size(); ++f) {
        ren.renderInto(traj[f], 0x5ce7e + f, &sample);
        bits.add(pipe.processFrame(sample.image));
    }
    const HealthStats &stats = pipe.healthStats();
    EXPECT_EQ(stats.frames, 120);
    EXPECT_EQ(stats.dropped_frames, 0);
    EXPECT_EQ(hashBytes(bits.gaze), 0x111e632adf99a8eau)
        << std::hex << hashBytes(bits.gaze);
    EXPECT_EQ(hashBytes(bits.roi), 0xcdb2b03eb6bbb2e0u)
        << std::hex << hashBytes(bits.roi);
    EXPECT_EQ(hashBytes(bits.health), 0x37720c9a09362b45u)
        << std::hex << hashBytes(bits.health);
    EXPECT_EQ(hashBytes(bits.pixels), 0xe40fffe8f849642au)
        << std::hex << hashBytes(bits.pixels);
}

TEST(Degradation, NonFiniteScenePixelsKeepTheirHealthCounts)
{
    // A NaN scene pixel, on a refresh frame and on focus frames,
    // outside the ROI and inside it. A FlatCam measurement turns
    // non-finite, so the frame is dropped; a lens frame sanitizes
    // it, and a lens focus frame that copies only the ROI still
    // counts a NaN it did not copy. The counts are those of
    // acquiring every frame in full.
    struct Want
    {
        CameraKind camera;
        long degraded, dropped, nonfinite, retries, holds, recoveries,
            latency;
    };
    const Want wants[] = {
        {CameraKind::Lens, 4, 0, 4, 0, 0, 3, 4},
        {CameraKind::FlatCam, 5, 4, 0, 1, 4, 3, 5},
    };
    const auto ren = renderer128();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const Want &want : wants) {
        PipelineConfig pc;
        pc.camera = want.camera;
        pc.roi_refresh = 5;
        PredictThenFocusPipeline pipe(pc);
        pipe.trainGaze(ren, 80);
        for (int f = 0; f < 12; ++f) {
            Image scene = ren.sample(uint64_t(300 + f)).image;
            if (f == 2 || f == 5 || f == 8)
                scene.at(0, 0) = nan; // outside every ROI
            if (f == 3)
                scene.at(64, 64) = nan; // inside it
            const auto &r = pipe.processFrame(scene);
            const bool poisoned = f == 2 || f == 3 || f == 5 || f == 8;
            if (want.camera == CameraKind::Lens)
                EXPECT_EQ(r.health.nonfinite_view, poisoned) << f;
            else
                EXPECT_EQ(r.health.frame_dropped, poisoned) << f;
        }
        const HealthStats &h = pipe.healthStats();
        const int cam = int(want.camera);
        EXPECT_EQ(h.frames, 12) << cam;
        EXPECT_EQ(h.degraded_frames, want.degraded) << cam;
        EXPECT_EQ(h.dropped_frames, want.dropped) << cam;
        EXPECT_EQ(h.nonfinite_views, want.nonfinite) << cam;
        EXPECT_EQ(h.shape_mismatches, 0) << cam;
        EXPECT_EQ(h.roi_rejections, 0) << cam;
        EXPECT_EQ(h.watchdog_retries, want.retries) << cam;
        EXPECT_EQ(h.gaze_holds, want.holds) << cam;
        EXPECT_EQ(h.recoveries, want.recoveries) << cam;
        EXPECT_EQ(h.sum_recovery_latency, want.latency) << cam;
    }
}

TEST(Degradation, ResetRestoresTheFullStateMachine)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 5;
    pc.faults.drop_rate = 1.0; // every frame dropped
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 120);

    for (int f = 0; f < 8; ++f)
        pipe.processFrame(ren.sample(0).image);
    EXPECT_TRUE(pipe.inDegradedMode());
    EXPECT_EQ(pipe.healthStats().dropped_frames, 8);

    pipe.reset();
    EXPECT_FALSE(pipe.inDegradedMode());
    EXPECT_EQ(pipe.healthStats().frames, 0);
    EXPECT_EQ(pipe.healthStats().dropped_frames, 0);
    EXPECT_EQ(pipe.healthStats().degraded_frames, 0);
    EXPECT_EQ(pipe.healthStats().gaze_holds, 0);
}

TEST(Degradation, CenterFallbackBeforeAnyAcceptedRoi)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 5;
    pc.faults.drop_rate = 1.0;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 120);

    for (int f = 0; f < 6; ++f) {
        const auto r = pipe.processFrame(ren.sample(3).image);
        EXPECT_TRUE(r.health.frame_dropped);
        EXPECT_TRUE(r.health.gaze_held);
        EXPECT_TRUE(r.health.degraded);
        EXPECT_EQ(r.health.roi_source, RoiSource::CenterFallback);
        // No history: the held gaze is the neutral forward vector.
        EXPECT_DOUBLE_EQ(r.gaze[2], 1.0);
        // The fallback crop is centered on the frame.
        EXPECT_NEAR(r.roi.cy(), 64.0, 1.0);
        EXPECT_NEAR(r.roi.cx(), 64.0, 1.0);
    }
}

TEST(Degradation, LastGoodRoiOutlivesThePredictedChain)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 5;
    pc.stale_limit_windows = 1;
    // Frame 0 is clean (the ROI chain is established), then the
    // sensor goes dark for good.
    pc.faults.drop_rate = 1.0;
    pc.faults.first_frame = 1;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 120);

    const auto first = pipe.processFrame(ren.sample(5).image);
    EXPECT_FALSE(first.health.degraded);
    EXPECT_EQ(first.health.roi_source, RoiSource::Predicted);
    const Rect good = first.roi;

    for (int f = 1; f < 12; ++f) {
        const auto r = pipe.processFrame(ren.sample(5).image);
        ASSERT_TRUE(r.health.frame_dropped);
        if (f <= pc.stale_limit_windows * pc.roi_refresh) {
            EXPECT_EQ(r.health.roi_source, RoiSource::Predicted)
                << f;
        } else {
            // Chain expired: hold the last gate-accepted ROI rather
            // than falling all the way back to the centered crop.
            EXPECT_EQ(r.health.roi_source, RoiSource::LastGood) << f;
            EXPECT_EQ(r.roi.x, good.x) << f;
            EXPECT_EQ(r.roi.y, good.y) << f;
        }
    }
}

TEST(Degradation, WatchdogRetriesWithCappedExponentialBackoff)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 10;
    pc.watchdog.initial_backoff = 1;
    pc.watchdog.max_backoff = 4;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 120);

    // A blank scene segments to nothing: every refresh attempt is
    // rejected by the gate and the watchdog keeps retrying early.
    const Image blank(128, 128, 0.0f);
    std::vector<int> retry_frames;
    for (int f = 0; f < 20; ++f) {
        const auto r = pipe.processFrame(blank);
        EXPECT_TRUE(r.health.degraded) << f;
        if (r.roi_refreshed && f % pc.roi_refresh != 0)
            retry_frames.push_back(f);
    }
    const HealthStats &h = pipe.healthStats();
    EXPECT_GT(h.roi_rejections, 2);
    EXPECT_GT(h.watchdog_retries, 1);
    // Backoff doubles 1, 2, 4 and then stays at the cap: retries at
    // frames 1, 3, 7, 11 (the frame-10 boundary re-arms the cycle).
    ASSERT_GE(retry_frames.size(), size_t(2));
    EXPECT_EQ(retry_frames[0], 1);
    EXPECT_EQ(retry_frames[1], 3);

    // A real eye ends the outage at the next attempt.
    const auto recovered = pipe.processFrame(ren.sample(9).image);
    EXPECT_EQ(recovered.health.roi_source, RoiSource::Predicted);
}

TEST(Degradation, RecoveryLatencyIsRecordedOnce)
{
    PipelineConfig pc;
    pc.camera = CameraKind::Lens;
    pc.roi_refresh = 5;
    // A three-frame outage: frames 2..4 dropped.
    pc.faults.drop_rate = 1.0;
    pc.faults.first_frame = 2;
    pc.faults.last_frame = 4;
    PredictThenFocusPipeline pipe(pc);
    const auto ren = renderer128();
    pipe.trainGaze(ren, 120);

    std::vector<long> latencies;
    for (int f = 0; f < 10; ++f) {
        const auto r = pipe.processFrame(ren.sample(21).image);
        if (r.health.recovery_latency >= 0)
            latencies.push_back(r.health.recovery_latency);
    }
    ASSERT_EQ(latencies.size(), size_t(1));
    EXPECT_EQ(latencies[0], 3); // outage began at frame 2, healthy at 5
    EXPECT_EQ(pipe.healthStats().recoveries, 1);
    EXPECT_DOUBLE_EQ(pipe.healthStats().meanRecoveryLatency(), 3.0);
    EXPECT_FALSE(pipe.inDegradedMode());
}

} // namespace
} // namespace eyetrack
} // namespace eyecod
