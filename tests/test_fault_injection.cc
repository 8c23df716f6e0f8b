/**
 * @file
 * FaultInjector tests: the schedule must be a pure function of
 * (seed, frame) — deterministic, order-independent, maskable by the
 * active window — and each fault kind must corrupt pixels the way
 * its real-sensor counterpart does.
 */

#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "flatcam/fault_injection.h"
#include "flatcam/imaging.h"
#include "flatcam/mask.h"

namespace eyecod {
namespace flatcam {
namespace {

Image
rampImage(int extent)
{
    Image img(extent, extent);
    for (int y = 0; y < extent; ++y)
        for (int x = 0; x < extent; ++x)
            img.at(y, x) =
                float(y * extent + x) / float(extent * extent);
    return img;
}

TEST(FaultInjector, ScheduleIsDeterministicAndOrderIndependent)
{
    const FaultConfig cfg = FaultConfig::mixed(0.2, 0x1234);
    const FaultInjector a(cfg);
    const FaultInjector b(cfg);

    std::vector<FrameFaults> forward;
    for (long f = 0; f < 300; ++f)
        forward.push_back(a.plan(f));
    // Same config, reverse query order: identical schedule.
    for (long f = 299; f >= 0; --f)
        EXPECT_EQ(b.plan(f).active, forward[size_t(f)].active) << f;
    // Replaying the same injector is also stable.
    for (long f = 0; f < 300; ++f)
        EXPECT_EQ(a.plan(f).active, forward[size_t(f)].active) << f;
}

TEST(FaultInjector, SeedChangesTheSchedule)
{
    const FaultInjector a(FaultConfig::mixed(0.2, 1));
    const FaultInjector b(FaultConfig::mixed(0.2, 2));
    int differing = 0;
    for (long f = 0; f < 200; ++f)
        differing += a.plan(f).active != b.plan(f).active ? 1 : 0;
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, RatesApproximateTheConfig)
{
    FaultConfig cfg;
    cfg.drop_rate = 0.1;
    const FaultInjector inj(cfg);
    long drops = 0;
    const long frames = 5000;
    for (long f = 0; f < frames; ++f) {
        const FrameFaults faults = inj.plan(f);
        drops += faults.dropped() ? 1 : 0;
        // Only the configured kind ever fires.
        EXPECT_EQ(faults.count(), faults.dropped() ? 1 : 0);
    }
    EXPECT_NEAR(double(drops) / double(frames), 0.1, 0.02);
}

TEST(FaultInjector, ActiveWindowMasksWithoutReshuffling)
{
    FaultConfig bounded = FaultConfig::mixed(0.3, 0xab);
    bounded.first_frame = 10;
    bounded.last_frame = 49;
    const FaultInjector windowed(bounded);
    const FaultInjector unbounded(FaultConfig::mixed(0.3, 0xab));

    for (long f = 0; f < 100; ++f) {
        const FrameFaults faults = windowed.plan(f);
        if (f < 10 || f > 49) {
            EXPECT_FALSE(faults.any()) << f;
        } else {
            // Inside the window the schedule matches the unbounded
            // injector bit for bit: the bounds only mask.
            EXPECT_EQ(faults.active, unbounded.plan(f).active) << f;
        }
    }
}

TEST(FaultInjector, DeadBlockPinsPixelsAtTheFrameMinimum)
{
    FaultConfig cfg;
    cfg.dead_block_rate = 1.0;
    cfg.block_extent = 8;
    const FaultInjector inj(cfg);
    Image img = rampImage(64);
    const float lo = img.minValue();
    const FrameFaults faults = inj.plan(3);
    ASSERT_TRUE(faults.has(FaultKind::DeadPixelBlock));
    inj.applySensorFaults(faults, 3, img);

    long pinned = 0;
    for (const float v : img.data())
        pinned += v == lo ? 1 : 0;
    // The block plus the original minimum pixel.
    EXPECT_GE(pinned, 8 * 8);
    EXPECT_LE(pinned, 8 * 8 + 1);
}

TEST(FaultInjector, HotBlockExceedsTheOriginalRange)
{
    FaultConfig cfg;
    cfg.hot_block_rate = 1.0;
    cfg.block_extent = 4;
    const FaultInjector inj(cfg);
    Image img = rampImage(32);
    const float hi = img.maxValue();
    inj.applySensorFaults(inj.plan(0), 0, img);
    EXPECT_GT(img.maxValue(), hi);
}

TEST(FaultInjector, SaturationClipsAtTheKnee)
{
    FaultConfig cfg;
    cfg.saturation_rate = 1.0;
    cfg.saturation_knee = 0.5;
    const FaultInjector inj(cfg);
    Image img = rampImage(32);
    const float lo = img.minValue();
    const float range = img.maxValue() - lo;
    inj.applySensorFaults(inj.plan(0), 0, img);
    EXPECT_LE(img.maxValue(), lo + 0.5f * range + 1e-6f);
}

TEST(FaultInjector, SensorFaultApplicationIsDeterministic)
{
    const FaultConfig cfg = FaultConfig::mixed(1.0, 0x77);
    const FaultInjector inj(cfg);
    Image a = rampImage(48);
    Image b = rampImage(48);
    inj.applySensorFaults(inj.plan(9), 9, a);
    inj.applySensorFaults(inj.plan(9), 9, b);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a.data()[i], b.data()[i]) << i;
}

TEST(FaultInjector, NanPoisonHitsOnlyABoundedBlock)
{
    FaultConfig cfg;
    cfg.nan_rate = 1.0;
    cfg.nan_extent = 5;
    const FaultInjector inj(cfg);
    Image img = rampImage(64);
    inj.applyViewFaults(inj.plan(1), 1, img);

    long nans = 0;
    for (const float v : img.data())
        nans += std::isnan(v) ? 1 : 0;
    EXPECT_GT(nans, 0);
    EXPECT_LE(nans, 5 * 5);
}

TEST(FaultInjector, KindNamesAreDistinct)
{
    std::set<std::string> names;
    for (int k = 0; k < kNumFaultKinds; ++k)
        names.insert(faultKindName(FaultKind(k)));
    EXPECT_EQ(names.size(), size_t(kNumFaultKinds));
}

TEST(FlatCamSensorFaults, CaptureFrameReportsShapeErrors)
{
    MaskConfig mc;
    mc.scene_rows = 32;
    mc.scene_cols = 32;
    mc.sensor_rows = 48;
    mc.sensor_cols = 48;
    mc.mls_order = 6;
    FlatCamSensor sensor(makeSeparableMask(mc));
    const Image scene = rampImage(32);
    const Image small = rampImage(16);
    Image out;

    EXPECT_TRUE(sensor.captureFrameInto(scene, 0, &out).isOk());
    // Mis-sized scenes are a typed error, not an abort, and the
    // sensor keeps capturing after one.
    const Status bad = sensor.captureFrameInto(small, 1, &out);
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), ErrorCode::ShapeMismatch);
    EXPECT_TRUE(sensor.captureFrameInto(scene, 2, &out).isOk());
}

} // namespace
} // namespace flatcam
} // namespace eyecod
