/**
 * @file
 * Tests of the public EyeCoDSystem API: functional tracking, the
 * performance report, the Fig. 14 comparison, and the communication
 * accounting of the sensing-processing interface.
 */

#include <gtest/gtest.h>

#include "core/eyecod.h"

namespace eyecod {
namespace core {
namespace {

SystemConfig
fastConfig()
{
    SystemConfig cfg;
    cfg.pipeline.camera = eyetrack::CameraKind::Lens;
    return cfg;
}

TEST(EyeCoDSystem, TrainAndTrack)
{
    EyeCoDSystem sys(fastConfig());
    dataset::RenderConfig rc;
    rc.image_size = sys.config().pipeline.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    sys.train(ren, 200);
    const auto s = ren.sample(99999);
    const auto r = sys.processFrame(s.image);
    EXPECT_LT(dataset::angularErrorDeg(r.gaze, s.gaze), 15.0);
}

TEST(EyeCoDSystem, ResetRestartsSequence)
{
    EyeCoDSystem sys(fastConfig());
    dataset::RenderConfig rc;
    rc.image_size = sys.config().pipeline.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    sys.train(ren, 120);
    const auto first = sys.processFrame(ren.sample(0).image);
    sys.processFrame(ren.sample(1).image);
    sys.reset();
    const auto again = sys.processFrame(ren.sample(0).image);
    EXPECT_TRUE(first.roi_refreshed);
    EXPECT_TRUE(again.roi_refreshed);
}

TEST(EyeCoDSystem, PerformanceReportIsRealTime)
{
    const EyeCoDSystem sys{SystemConfig{}};
    const accel::PerfReport r = sys.simulatePerformance();
    EXPECT_GT(r.fps, 240.0);
    EXPECT_TRUE(r.act_mem_fits);
}

TEST(EyeCoDSystem, ComparisonHasSixRows)
{
    const EyeCoDSystem sys{SystemConfig{}};
    const auto rows = sys.compareAgainstBaselines();
    ASSERT_EQ(rows.size(), 6u);
    EXPECT_EQ(rows.back().name, "EyeCoD");
    EXPECT_NEAR(rows.back().norm_energy_eff, 1.0, 1e-9);
}

TEST(EyeCoDSystem, EyeCoDWinsFig14)
{
    // The headline claim: best throughput AND best normalized
    // energy efficiency among all six platforms.
    const EyeCoDSystem sys{SystemConfig{}};
    const auto rows = sys.compareAgainstBaselines();
    const ComparisonRow &self = rows.back();
    for (size_t i = 0; i + 1 < rows.size(); ++i) {
        EXPECT_GT(self.fps, rows[i].fps) << rows[i].name;
        EXPECT_GT(self.system_fps, rows[i].system_fps)
            << rows[i].name;
        EXPECT_GT(self.norm_energy_eff, rows[i].norm_energy_eff)
            << rows[i].name;
    }
}

TEST(EyeCoDSystem, SpeedupRatiosInPaperBallpark)
{
    // Fig. 14 throughput ratios: CPU 12.75x, EdgeGPU 14.83x,
    // GPU 2.61x, EdgeCPU 2966x. We accept a factor-2 band (the
    // baselines are analytical; see DESIGN.md).
    const EyeCoDSystem sys{SystemConfig{}};
    const auto rows = sys.compareAgainstBaselines();
    std::map<std::string, double> fps;
    for (const auto &r : rows)
        fps[r.name] = r.fps;
    const double self = fps["EyeCoD"];
    EXPECT_GT(self / fps["CPU"], 6.0);
    EXPECT_LT(self / fps["CPU"], 26.0);
    EXPECT_GT(self / fps["EdgeGPU"], 7.0);
    EXPECT_LT(self / fps["EdgeGPU"], 30.0);
    EXPECT_GT(self / fps["GPU"], 1.3);
    EXPECT_LT(self / fps["GPU"], 5.5);
    EXPECT_GT(self / fps["EdgeCPU"], 1000.0);
}

TEST(EyeCoDSystem, CommBytesShrinkWithOpticalInterface)
{
    SystemConfig with = SystemConfig{};
    with.optical_interface = true;
    SystemConfig without = SystemConfig{};
    without.optical_interface = false;
    const EyeCoDSystem a(with), b(without);
    EXPECT_LT(a.frameCommBytes(), b.frameCommBytes());
    EXPECT_LT(a.frameCommBytes(), a.lensFrameCommBytes() * 4);
}

TEST(EyeCoDSystem, SystemSpeedupOrderingVsGpu)
{
    // Abstract: the end-to-end speedup vs GPU (3.21x) exceeds the
    // compute-only ratio (2.61x) because the camera link penalizes
    // the GPU more than the attached FlatCam penalizes EyeCoD.
    const EyeCoDSystem sys{SystemConfig{}};
    const auto rows = sys.compareAgainstBaselines();
    const ComparisonRow *gpu = nullptr;
    const ComparisonRow *self = &rows.back();
    for (const auto &r : rows)
        if (r.name == "GPU")
            gpu = &r;
    ASSERT_NE(gpu, nullptr);
    const double compute_ratio = self->fps / gpu->fps;
    const double system_ratio = self->system_fps / gpu->system_fps;
    EXPECT_GT(system_ratio, compute_ratio);
}


TEST(EyeCoDSystem, RuntimeProfileReportsArenaSavings)
{
    SystemConfig cfg;
    cfg.nn_backend = nn::BackendKind::Threaded;
    cfg.nn_threads = 2;
    const EyeCoDSystem sys{cfg};
    const RuntimeProfile profile = sys.runtimeProfile();
    EXPECT_EQ(profile.backend, "threaded-2");
    for (const nn::PlanStats *stats :
         {&profile.segmentation, &profile.gaze}) {
        EXPECT_GT(stats->arena_slots, 0u);
        EXPECT_LT(stats->arena_elements, stats->eager_elements);
        EXPECT_LE(stats->peak_live_elements, stats->arena_elements);
    }
}

TEST(EyeCoDSystem, ProcessFrameCheckedReturnsTypedSample)
{
    EyeCoDSystem sys(fastConfig());
    dataset::RenderConfig rc;
    rc.image_size = sys.config().pipeline.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    sys.train(ren, 120);
    const auto s = ren.sample(7);
    const Result<GazeSample> r = sys.processFrameChecked(s.image);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_TRUE(r.value().roi_refreshed); // first frame segments
    EXPECT_LT(dataset::angularErrorDeg(r.value().gaze, s.gaze),
              20.0);
    EXPECT_FALSE(r.value().health.frame_dropped);
}

TEST(EyeCoDSystem, ProcessFrameCheckedRejectsMisSizedScene)
{
    EyeCoDSystem sys(fastConfig());
    dataset::RenderConfig rc;
    rc.image_size = sys.config().pipeline.scene_size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    sys.train(ren, 120);
    const Image wrong(32, 32, 0.5f);
    const Result<GazeSample> r = sys.processFrameChecked(wrong);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ShapeMismatch);
    // The checked path still advanced the pipeline's health
    // bookkeeping exactly like the unchecked one.
    EXPECT_GT(sys.healthReport().drop_fraction, 0.0);
}

TEST(EyeCoDSystem, ProcessFrameCheckedReportsDroppedFrames)
{
    // The pipeline drops frames for both cameras.
    for (const eyetrack::CameraKind camera :
         {eyetrack::CameraKind::Lens, eyetrack::CameraKind::FlatCam}) {
        SCOPED_TRACE(camera == eyetrack::CameraKind::Lens ? "lens"
                                                          : "flatcam");
        SystemConfig cfg = fastConfig();
        cfg.pipeline.camera = camera;
        cfg.pipeline.faults.drop_rate = 1.0; // every frame is unusable
        EyeCoDSystem sys(cfg);
        dataset::RenderConfig rc;
        rc.image_size = sys.config().pipeline.scene_size;
        const dataset::SyntheticEyeRenderer ren(rc, 2019);
        sys.train(ren, 120);
        const Result<GazeSample> r =
            sys.processFrameChecked(ren.sample(0).image);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), ErrorCode::FrameDropped);
    }
}

} // namespace
} // namespace core
} // namespace eyecod
