/**
 * @file
 * Behavioral tests of the multi-session ServingEngine: throughput
 * scaling across sessions, admission control (typed Overloaded
 * rejections), drop-accounting identities, graceful overload with a
 * fairness bound, session lifecycle, stop semantics, and the metrics
 * export.
 */

#include <gtest/gtest.h>

#include "serving_test_util.h"

namespace eyecod {
namespace serve {
namespace {

TrafficConfig
quickTraffic(int sessions, long frames)
{
    TrafficConfig tc;
    tc.sessions = sessions;
    tc.frames_per_session = frames;
    return tc;
}

TEST(ServingEngine, ServesEverythingBelowSaturation)
{
    // 4 users on 2 chips is comfortably under capacity: every frame
    // completes, nothing is dropped, and no deadline is missed.
    ServingEngine eng(quickServingConfig(2), servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 quickTraffic(4, 40)));
    EXPECT_EQ(f.submitted, 4 * 40);
    EXPECT_EQ(f.completed, f.submitted);
    EXPECT_EQ(f.queue_drops, 0);
    EXPECT_EQ(f.deadline_misses, 0);
    EXPECT_EQ(f.sessions_opened, 4);
    EXPECT_EQ(f.sessions_rejected, 0);
    EXPECT_GT(f.aggregate_fps, 0.0);
    EXPECT_GT(f.backend_utilization, 0.0);
    EXPECT_LT(f.backend_utilization, 1.0);
    EXPECT_GT(f.p50_latency_us, 0.0);
    EXPECT_LE(f.p50_latency_us, f.p95_latency_us);
    EXPECT_LE(f.p95_latency_us, f.p99_latency_us);
    EXPECT_GT(f.makespan_us, 0);
}

TEST(ServingEngine, FleetThroughputScalesAcrossSessions)
{
    // One 240 FPS user cannot feed four chips; sixteen users can, so
    // the scheduler must multiplex sessions across the chips to reach
    // >= 3x the single-session aggregate FPS (virtual time), with no
    // frame shed and no deadline missed in either fleet.
    const auto serve = [](int sessions) {
        ServingEngine eng(quickServingConfig(4), servingTestEstimator(),
                          servingTestRenderer());
        return eng.runTrace(makeTraffic(servingTestRenderer(),
                                        quickTraffic(sessions, 30)));
    };
    const FleetMetrics one = serve(1);
    const FleetMetrics sixteen = serve(16);
    for (const FleetMetrics &f : {one, sixteen}) {
        EXPECT_EQ(f.completed, f.submitted);
        EXPECT_EQ(f.deadline_misses, 0);
    }
    ASSERT_GT(one.aggregate_fps, 0.0);
    EXPECT_GE(sixteen.aggregate_fps / one.aggregate_fps, 3.0)
        << sixteen.aggregate_fps << " vs " << one.aggregate_fps;
}

TEST(ServingEngine, ServiceModelIsRealTimePerChip)
{
    ServingEngine eng(quickServingConfig(1), servingTestEstimator(),
                      servingTestRenderer());
    EXPECT_GT(eng.serviceModel().chip_fps, 240.0);
    EXPECT_GT(eng.serviceModel().gaze_frame_us, 0.0);
}

TEST(ServingEngine, AdmissionRejectsOnProjectedUtilization)
{
    // One chip at ~884 us/frame against a 4167 us interval is ~0.21
    // utilization per session: two sessions fit under a 0.5 bound,
    // the third is a typed Overloaded rejection.
    ServingConfig cfg = quickServingConfig(1);
    cfg.admission_max_utilization = 0.5;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    EXPECT_TRUE(eng.openSession().ok());
    EXPECT_TRUE(eng.openSession().ok());
    const Result<int> third = eng.openSession();
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(third.status().code(), ErrorCode::Overloaded);
    EXPECT_EQ(eng.fleetMetrics().sessions_rejected, 1);
    // Capacity freed by a close is admissible again.
    EXPECT_TRUE(eng.closeSession(0).isOk());
    EXPECT_TRUE(eng.openSession().ok());
    EXPECT_EQ(eng.activeSessions(), 2);
}

TEST(ServingEngine, AdmissionRejectsOnSessionCap)
{
    ServingConfig cfg = quickServingConfig(4);
    cfg.max_sessions = 2;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    EXPECT_TRUE(eng.openSession().ok());
    EXPECT_TRUE(eng.openSession().ok());
    const Result<int> third = eng.openSession();
    ASSERT_FALSE(third.ok());
    EXPECT_EQ(third.status().code(), ErrorCode::Overloaded);
}

TEST(ServingEngine, SubmitValidatesSessionAndLifecycle)
{
    ServingEngine eng(quickServingConfig(1), servingTestEstimator(),
                      servingTestRenderer());
    FrameTicket t;
    EXPECT_EQ(eng.submitFrame(0, t).code(),
              ErrorCode::InvalidArgument);
    const int id = eng.openSession().value();
    EXPECT_TRUE(eng.submitFrame(id, t).isOk());
    EXPECT_TRUE(eng.closeSession(id).isOk());
    EXPECT_EQ(eng.submitFrame(id, t).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(eng.closeSession(id).code(),
              ErrorCode::InvalidArgument);
    eng.stop();
    EXPECT_EQ(eng.submitFrame(id, t).code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(eng.openSession().status().code(),
              ErrorCode::InvalidArgument);
}

TEST(ServingEngine, CloseSessionShedsQueuedFramesAsDrops)
{
    ServingEngine eng(quickServingConfig(1), servingTestEstimator(),
                      servingTestRenderer());
    const int id = eng.openSession().value();
    for (long f = 0; f < 5; ++f) {
        FrameTicket t;
        t.frame_index = f;
        EXPECT_TRUE(eng.submitFrame(id, t).isOk());
    }
    // No tick ran, so everything is still queued when we close.
    EXPECT_TRUE(eng.closeSession(id).isOk());
    const SessionMetrics &m = eng.sessionMetrics(id);
    EXPECT_EQ(m.submitted, 5);
    EXPECT_EQ(m.queue_drops, 5);
    EXPECT_EQ(m.completed, 0);
    EXPECT_EQ(m.drop_log.size(), 5u);
    EXPECT_FALSE(eng.sessionHealth(id).active);
    EXPECT_EQ(eng.activeSessions(), 0);
    EXPECT_EQ(eng.fleetMetrics().sessions_closed, 1);
}

TEST(ServingEngine, OverloadDropsAreBoundedAccountedAndFair)
{
    // 8 symmetric users on one chip oversubscribe it (~1.7x): the
    // degradation ladder must engage (resolution + refresh-rate
    // downgrades), the engine must shed load through accounted
    // drops, keep the books balanced, and not starve anyone.
    ServingConfig cfg = quickServingConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 quickTraffic(8, 40)));
    EXPECT_EQ(f.submitted, 8 * 40);
    EXPECT_GT(f.queue_drops, 0);
    // 1.7x pressure walks the ladder to at least tier 3: frames are
    // served at reduced resolution and every stride-th submit is
    // shed as a rate-downgrade drop.
    EXPECT_GT(f.tier_transitions, 0);
    EXPECT_GT(f.degraded_res_frames, 0);
    EXPECT_GT(f.drops_rate_downgrade, 0);
    // The per-reason breakdown partitions the total drop count.
    EXPECT_EQ(f.queue_drops,
              f.drops_backpressure + f.drops_shed_on_close +
                  f.drops_rate_downgrade + f.drops_failover);
    // Accounting identity after drain: every submitted frame either
    // completed or was shed as an accounted drop.
    EXPECT_EQ(f.submitted, f.completed + f.queue_drops);
    // Drops stay bounded: the chip still serves most of the load.
    EXPECT_LT(f.drop_rate, 0.5);
    long long min_completed = f.submitted, max_completed = 0;
    for (int id = 0; id < eng.sessionCount(); ++id) {
        const SessionMetrics &m = eng.sessionMetrics(id);
        EXPECT_EQ(m.submitted, m.completed + m.queue_drops)
            << "session " << id;
        EXPECT_LE(m.max_queue_depth,
                  (long long)(eng.config().queue_capacity))
            << "session " << id;
        min_completed = std::min(min_completed, m.completed);
        max_completed = std::max(max_completed, m.completed);
    }
    // Fairness bound under symmetric load: earliest-deadline-first
    // with session-id tie-breaks must not starve anyone.
    EXPECT_GT(min_completed, 0);
    EXPECT_GE(2 * min_completed, max_completed);
    // Health reflects the overload.
    bool any_session_dropped = false;
    for (int id = 0; id < eng.sessionCount(); ++id)
        any_session_dropped =
            any_session_dropped ||
            eng.sessionHealth(id).metrics.queue_drops > 0;
    EXPECT_TRUE(any_session_dropped);
}

TEST(ServingEngine, OverloadWithoutLadderMissesDeadlines)
{
    // Same 1.7x oversubscription with the ladder parked out of
    // reach: raw overload shows through as deadline misses and
    // bounded-queue backpressure drops — the behavior the ladder
    // exists to prevent.
    ServingConfig cfg = quickServingConfig(1);
    disableDegradationLadder(cfg);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 quickTraffic(8, 40)));
    EXPECT_EQ(f.submitted, 8 * 40);
    EXPECT_GT(f.deadline_misses, 0);
    EXPECT_GT(f.drops_backpressure, 0);
    EXPECT_EQ(f.drops_rate_downgrade, 0);
    EXPECT_EQ(f.degraded_res_frames, 0);
    EXPECT_EQ(f.degradation_tier, 0);
    EXPECT_EQ(f.submitted, f.completed + f.queue_drops);
}

TEST(ServingEngine, StopWithDrainLosesNoFrame)
{
    ServingEngine eng(quickServingConfig(2), servingTestEstimator(),
                      servingTestRenderer());
    // One queue-capacity's worth per session, submitted before any
    // tick runs: a draining stop must serve every one of them.
    const long frames = long(eng.config().queue_capacity);
    const auto traffic = makeTraffic(servingTestRenderer(),
                                     quickTraffic(2, frames));
    std::vector<int> ids;
    for (size_t s = 0; s < traffic.size(); ++s) {
        ids.push_back(eng.openSession().value());
        for (const FrameTicket &t : traffic[s].frames)
            EXPECT_TRUE(eng.submitFrame(ids.back(), t).isOk());
    }
    eng.stop(/*drain_first=*/true);
    const FleetMetrics f = eng.fleetMetrics();
    EXPECT_EQ(f.submitted, 2 * frames);
    EXPECT_EQ(f.completed, 2 * frames);
    EXPECT_EQ(f.queue_drops, 0);
    // Idempotent, and the engine stays queryable.
    eng.stop();
    EXPECT_EQ(eng.fleetMetrics().completed, 2 * frames);
}

TEST(ServingEngine, StopWithoutDrainShedsTheBacklog)
{
    ServingEngine eng(quickServingConfig(1), servingTestEstimator(),
                      servingTestRenderer());
    const int id = eng.openSession().value();
    for (long f = 0; f < 6; ++f) {
        FrameTicket t;
        t.frame_index = f;
        ASSERT_TRUE(eng.submitFrame(id, t).isOk());
    }
    eng.stop(/*drain_first=*/false);
    const FleetMetrics f = eng.fleetMetrics();
    EXPECT_EQ(f.submitted, 6);
    EXPECT_EQ(f.completed, 0);
    EXPECT_EQ(f.queue_drops, 6);
    EXPECT_EQ(f.submitted, f.completed + f.queue_drops);
}

TEST(ServingEngine, ExportMetricsWritesFleetAndPerSessionSections)
{
    ServingEngine eng(quickServingConfig(2), servingTestEstimator(),
                      servingTestRenderer());
    eng.runTrace(makeTraffic(servingTestRenderer(),
                             quickTraffic(2, 8)));
    PerfJson json;
    eng.exportMetrics(json, "serving");
    const std::string text = json.serialize();
    EXPECT_NE(text.find("\"serving\""), std::string::npos);
    EXPECT_NE(text.find("\"serving.s0\""), std::string::npos);
    EXPECT_NE(text.find("\"serving.s1\""), std::string::npos);
    EXPECT_NE(text.find("aggregate_fps"), std::string::npos);
    EXPECT_NE(text.find("p99_latency_us"), std::string::npos);
}

TEST(ServingEngine, RunTraceAppliesAdmissionToJoins)
{
    // Cap the fleet at 2 sessions and replay a 4-user trace: two
    // users are rejected, their frames never enter the system, and
    // the served users still complete everything.
    ServingConfig cfg = quickServingConfig(2);
    cfg.max_sessions = 2;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 quickTraffic(4, 10)));
    EXPECT_EQ(f.sessions_opened, 2);
    EXPECT_EQ(f.sessions_rejected, 2);
    EXPECT_EQ(f.submitted, 2 * 10);
    EXPECT_EQ(f.completed, f.submitted);
}

} // namespace
} // namespace serve
} // namespace eyecod
