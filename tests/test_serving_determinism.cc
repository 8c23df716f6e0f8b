/**
 * @file
 * Determinism tests of the serving engine: the same trace must
 * produce bitwise-identical gaze streams, drop decisions, and
 * metrics at any scheduler thread count (1 / 2 / 8) and across
 * repeated runs. This is the replayability contract the whole
 * virtual-time design exists to provide.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "serving_test_util.h"

namespace eyecod {
namespace serve {
namespace {

/**
 * Serve a fixed overloaded trace (8 users, one chip, so drop and
 * deadline decisions are part of the signature) and fold every
 * observable output into one string: hex-formatted gaze streams,
 * drop logs, and the serialized metrics JSON.
 */
std::string
runSignature(int scheduler_threads)
{
    ServingConfig cfg = quickServingConfig(1, scheduler_threads);
    cfg.record_gaze = true;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    TrafficConfig tc;
    tc.sessions = 8;
    tc.frames_per_session = 30;
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(), tc));

    std::string sig = engineSignature(eng);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "|completed=%lld drops=%lld misses=%lld tier=%d",
                  f.completed, f.queue_drops, f.deadline_misses,
                  f.degradation_tier);
    sig += buf;
    // The trace is overloaded on purpose; an all-clean run would
    // leave the shedding and degradation paths untested. The ladder
    // absorbs the overload, so the interesting decisions are its
    // rate-downgrade sheds and tier walk, not deadline misses.
    EXPECT_GT(f.queue_drops, 0);
    EXPECT_GT(f.drops_rate_downgrade, 0);
    EXPECT_GT(f.tier_transitions, 0);
    return sig;
}

TEST(ServingDeterminism, IdenticalAcrossSchedulerThreadCounts)
{
    const std::string one = runSignature(1);
    expectSameSignature(one, runSignature(2), "1 vs 2 threads");
    expectSameSignature(one, runSignature(8), "1 vs 8 threads");
}

TEST(ServingDeterminism, RepeatedRunsAreIdentical)
{
    EXPECT_EQ(runSignature(4), runSignature(4));
}

/**
 * Chaos + churn signature: chip 1 of 2 dies mid-run and rejoins,
 * chip 0 loses MAC lanes to BIST, and every third session leaves
 * halfway through (joins staggered) — so the signature covers
 * failover re-dispatch decisions, drop reasons, degraded-model
 * billing, and the ladder walk under session churn.
 */
std::string
chaosSignature(int scheduler_threads)
{
    ServingConfig cfg = quickServingConfig(2, scheduler_threads);
    cfg.record_gaze = true;
    cfg.failover.chip_faults = {
        // 34000 lands mid-batch on chip 1, so the outage catches
        // frames in flight and the re-dispatch path is exercised.
        ChipFaultEvent{34000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{40000, 0, ChipEventKind::RetireLanes, 16},
        ChipFaultEvent{90000, 1, ChipEventKind::Rejoin, 0},
    };
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    TrafficConfig tc;
    tc.sessions = 12; // ~1.27x on two chips: backlog keeps both
                      // chips in flight at the failure instant
    tc.frames_per_session = 30;
    tc.churn_stagger_us = 2000;
    tc.leave_every = 3;
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(), tc));

    const std::string sig = engineSignature(eng);
    // The schedule must actually exercise the failover machinery;
    // churned sessions must have left mid-run.
    EXPECT_EQ(f.chip_failures, 1);
    EXPECT_GT(f.redispatched_frames, 0);
    EXPECT_EQ(f.lanes_retired, 16);
    EXPECT_EQ(f.sessions_closed, 4); // sessions 2, 5, 8, 11 leave
    return sig;
}

TEST(ServingDeterminism, ChaosAndChurnIdenticalAcrossThreadCounts)
{
    const std::string one = chaosSignature(1);
    expectSameSignature(one, chaosSignature(2), "chaos 1 vs 2 threads");
    expectSameSignature(one, chaosSignature(8), "chaos 1 vs 8 threads");
}

/**
 * FlatCam fleet: eight sessions whose sensors and reconstructors all
 * read one shared, immutable optics object, so at 2 and 8 threads the
 * scheduler runs several sessions' multiplex and reconstruction
 * against it at once. Sized for TSan.
 */
std::string
flatcamSignature(int scheduler_threads,
                 const std::shared_ptr<const flatcam::Optics> &optics)
{
    ServingConfig cfg = quickServingConfig(2, scheduler_threads);
    cfg.system = flatcamServingTestSystem();
    cfg.record_gaze = true;
    cfg.record_completions = true;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    TrafficConfig tc;
    tc.sessions = 8;
    tc.frames_per_session = 8;
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(), tc));
    EXPECT_EQ(eng.sessionCount(), 8);
    EXPECT_GT(f.completed, 0);
    EXPECT_EQ(optics.use_count(), 1 + 2 * eng.sessionCount())
        << "sessions do not all hold the one shared optics object";
    return engineSignature(eng);
}

TEST(ServingDeterminism, FlatCamSessionsIdenticalAcrossThreadCounts)
{
    const auto optics = sessionOptics(flatcamServingTestSystem());
    const std::string one = flatcamSignature(1, optics);
    expectSameSignature(one, flatcamSignature(2, optics),
                        "flatcam 1 vs 2 threads");
    expectSameSignature(one, flatcamSignature(8, optics),
                        "flatcam 1 vs 8 threads");
    // Every engine released its sessions' references.
    EXPECT_EQ(optics.use_count(), 1);
}

} // namespace
} // namespace serve
} // namespace eyecod
