/**
 * @file
 * Failover and graceful-degradation tests: chip lifecycle in the
 * VirtualAccelPool (fail / rejoin / retire-lanes, busy refunds,
 * degraded service models), the seeded chaos-schedule generator, the
 * FleetHealthController tier ladder, and the engine's end-to-end
 * failover behavior — re-dispatch of in-flight frames, the ladder's
 * round trip and p99 recovery across a chip outage, dead-fleet
 * drains, tier-4 admission rejection, and the fleet counters
 * surfaced through fleetMetrics().
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "serving_test_util.h"

namespace eyecod {
namespace serve {
namespace {

TrafficConfig
failoverTraffic(int sessions, long frames)
{
    TrafficConfig tc;
    tc.sessions = sessions;
    tc.frames_per_session = frames;
    return tc;
}

TEST(VirtualAccelPool, FailRefundsBusyAndRejoinRestores)
{
    ServiceModel m;
    m.gaze_frame_us = 100.0;
    m.seg_frame_us = 400.0;
    m.amortized_frame_us = 112.0;
    m.chip_fps = 1e6 / 112.0;
    VirtualAccelPool pool(2, m, 0.3);
    pool.setFaultSchedule({
        ChipFaultEvent{5000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{9000, 1, ChipEventKind::Rejoin, 0},
    });

    // Occupy chip 1 past the failure instant.
    pool.dispatch(1, 4000, 3000.0); // busy until 7000
    const double busy_before = pool.totalBusyUs();
    EXPECT_DOUBLE_EQ(busy_before, 3000.0);

    auto outcome = pool.applyEventsUpTo(5000);
    ASSERT_EQ(outcome.failed.size(), 1u);
    EXPECT_EQ(outcome.failed[0], 1);
    EXPECT_FALSE(pool.alive(1));
    EXPECT_EQ(pool.aliveChips(), 1);
    // The unserved tail [5000, 7000) is refunded from busy time.
    EXPECT_DOUBLE_EQ(pool.totalBusyUs(), 1000.0);
    // Chip 1's busy horizon has passed, but it is dead; chip 0 is
    // the one idle chip.
    EXPECT_LE(pool.busyUntil(1), 6000);
    EXPECT_TRUE(pool.alive(0));
    EXPECT_LE(pool.busyUntil(0), 6000);

    outcome = pool.applyEventsUpTo(9000);
    ASSERT_EQ(outcome.rejoined.size(), 1u);
    EXPECT_TRUE(pool.alive(1));
    EXPECT_FALSE(pool.hasPendingEvents());
    EXPECT_LE(pool.busyUntil(1), 9000);
    EXPECT_DOUBLE_EQ(pool.effectiveCapacity(), 2.0);
}

/** Exact equality of every ServiceModel field. */
void
expectSameModel(const ServiceModel &a, const ServiceModel &b)
{
    EXPECT_EQ(a.gaze_frame_us, b.gaze_frame_us);
    EXPECT_EQ(a.seg_frame_us, b.seg_frame_us);
    EXPECT_EQ(a.amortized_frame_us, b.amortized_frame_us);
    EXPECT_EQ(a.chip_fps, b.chip_fps);
}

TEST(VirtualAccelPool, RetireLanesDegradesTheChipModel)
{
    core::SystemConfig sys = servingTestSystem();
    const ServiceModel base =
        deriveServiceModel(sys.workload, sys.hw).value();
    VirtualAccelPool pool(3, base, 0.3);
    pool.configureHardware(sys.workload, sys.hw);
    pool.setFaultSchedule({
        ChipFaultEvent{1000, 0, ChipEventKind::RetireLanes, 32},
        ChipFaultEvent{2000, 2, ChipEventKind::RetireLanes, 32},
    });
    const auto outcome = pool.applyEventsUpTo(1000);
    ASSERT_EQ(outcome.lane_retired.size(), 1u);
    EXPECT_EQ(outcome.lanes_retired, 32);
    EXPECT_EQ(pool.retiredLanes(0), 32);
    // The chip stays in service but serves slower: the degraded
    // model is re-derived from the cycle-level scheduler on the
    // lane-retired hardware.
    EXPECT_TRUE(pool.alive(0));
    EXPECT_GT(pool.chipModel(0).amortized_frame_us,
              base.amortized_frame_us);
    EXPECT_GT(pool.effectiveCapacity(), 2.0);
    EXPECT_LT(pool.effectiveCapacity(), 3.0);
    // The healthy chip's model is untouched.
    EXPECT_DOUBLE_EQ(pool.chipModel(1).amortized_frame_us,
                     base.amortized_frame_us);
    // A second chip losing as many lanes derives the model anew, and
    // both equal the scheduler's model of the retired hardware.
    ASSERT_EQ(pool.applyEventsUpTo(2000).lane_retired.size(), 1u);
    const ServiceModel want =
        deriveServiceModel(sys.workload,
                           accel::retireLanes(sys.hw, 32).value())
            .value();
    expectSameModel(pool.chipModel(0), want);
    expectSameModel(pool.chipModel(2), want);
}

TEST(ChaosSchedule, ZeroRatesYieldEmptySchedule)
{
    core::SystemConfig sys = servingTestSystem();
    ChaosScheduleConfig cc;
    cc.horizon_us = 500000;
    EXPECT_TRUE(makeChipFaultSchedule(cc, sys.hw, 4).empty());
}

TEST(ChaosSchedule, SeededScheduleIsDeterministicAndSorted)
{
    core::SystemConfig sys = servingTestSystem();
    ChaosScheduleConfig cc;
    cc.hw_faults.seed = 77;
    cc.hw_faults.stall_rate = 0.2;
    cc.hw_faults.dead_lane_rate = 0.02;
    cc.horizon_us = 500000;
    const auto a = makeChipFaultSchedule(cc, sys.hw, 4);
    const auto b = makeChipFaultSchedule(cc, sys.hw, 4);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at_us, b[i].at_us);
        EXPECT_EQ(a[i].chip, b[i].chip);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].lanes, b[i].lanes);
        if (i > 0) {
            EXPECT_LE(a[i - 1].at_us, a[i].at_us);
        }
    }
    // A different seed reshapes the schedule.
    ChaosScheduleConfig cc2 = cc;
    cc2.hw_faults.seed = 78;
    const auto c = makeChipFaultSchedule(cc2, sys.hw, 4);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].at_us != c[i].at_us ||
                  a[i].chip != c[i].chip || a[i].kind != c[i].kind;
    EXPECT_TRUE(differs);
}

TEST(FleetHealthController, EngagesWithHysteresisAndWalksBack)
{
    HealthControllerConfig cfg;
    cfg.engage_ticks = 3;
    cfg.disengage_ticks = 5;
    FleetHealthController hc(cfg);
    ASSERT_EQ(hc.tier(), 0);

    // Two ticks above the tier-1 threshold are not enough...
    FleetSignal hot;
    hot.utilization = 1.05;
    hc.update(hot);
    hc.update(hot);
    EXPECT_EQ(hc.tier(), 0);
    // ...the third engages tier 1, and the streak resets.
    EXPECT_EQ(hc.update(hot), 1);
    EXPECT_EQ(hc.transitions(), 1);
    // 1.05 sits inside tier 2's hysteresis band (< 1.08 engage,
    // >= 0.98 disengage): the ladder holds at tier 1 indefinitely.
    for (int i = 0; i < 20; ++i)
        hc.update(hot);
    EXPECT_EQ(hc.tier(), 1);

    // Pressure collapse: disengage only after 5 consecutive ticks.
    FleetSignal cool;
    cool.utilization = 0.4;
    for (int i = 0; i < 4; ++i)
        hc.update(cool);
    EXPECT_EQ(hc.tier(), 1);
    EXPECT_EQ(hc.update(cool), 0);
    EXPECT_EQ(hc.transitions(), 2);
    EXPECT_GT(hc.residencyTicks(0), 0);
    EXPECT_GT(hc.residencyTicks(1), 0);
}

TEST(FleetHealthController, QueueOccupancyFoldsIntoPressure)
{
    HealthControllerConfig cfg;
    cfg.engage_ticks = 1;
    FleetHealthController hc(cfg);
    // Utilization alone looks sustainable, but deep queues mean the
    // fleet is already behind: occupancy * gain carries the signal.
    FleetSignal s;
    s.utilization = 0.6;
    s.queue_occupancy = 0.8; // * 1.6 = 1.28 pressure
    hc.update(s);
    EXPECT_EQ(hc.tier(), 1);
    EXPECT_DOUBLE_EQ(hc.lastPressure(), 0.8 * 1.6);
}

TEST(FleetHealthController, ClimbsOneRungPerWindow)
{
    HealthControllerConfig cfg;
    cfg.engage_ticks = 2;
    FleetHealthController hc(cfg);
    FleetSignal crush;
    crush.utilization = 50.0; // above every engage threshold
    // Even under crushing pressure the ladder walks rung by rung:
    // two ticks per tier, never jumping.
    int prev = 0;
    for (int t = 0; t < 8; ++t) {
        const int tier = hc.update(crush);
        EXPECT_LE(tier - prev, 1);
        prev = tier;
    }
    EXPECT_EQ(hc.tier(), 4);
    EXPECT_TRUE(hc.admissionClosed());
}

TEST(ServingEngine, ChipFailureRedispatchesInFlightFrames)
{
    // Sixteen users on two chips saturate the fleet (the ladder is
    // parked so no load is shed), keeping both chips carrying
    // in-flight batches. Chip 1 dies mid-run and comes back: its
    // in-flight frames must be re-dispatched to chip 0 (bounded
    // retries), nothing may be lost from the books, and the fleet
    // counters must record the outage.
    ServingConfig cfg = quickServingConfig(2);
    disableDegradationLadder(cfg);
    cfg.failover.chip_faults = {
        ChipFaultEvent{30000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{90000, 1, ChipEventKind::Rejoin, 0},
    };
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 failoverTraffic(16, 40)));
    EXPECT_EQ(f.chip_failures, 1);
    EXPECT_EQ(f.chip_rejoins, 1);
    EXPECT_GT(f.redispatched_frames, 0);
    EXPECT_EQ(f.submitted, f.completed + f.queue_drops);
    EXPECT_EQ(f.queue_drops,
              f.drops_backpressure + f.drops_shed_on_close +
                  f.drops_rate_downgrade + f.drops_failover);
    // No session terminations: every admitted session survives the
    // outage (closes only happen via closeSession, and this trace
    // has no leaves).
    EXPECT_EQ(f.sessions_closed, 0);
    EXPECT_EQ(eng.activeSessions(), 16);
    // Re-dispatched completions carry their failover latency tax.
    EXPECT_GT(f.failover_p99_latency_us, 0.0);
}

TEST(ServingEngine, LadderRidesOutAChipOutageAndP99Recovers)
{
    // Sixteen users on four chips with the ladder on: chip 1 dies
    // mid-batch and rejoins 150 ms later. The ladder must engage
    // during the outage and walk back to tier 0, and completions one
    // ROI-refresh window past the rejoin must show a p99 latency
    // within 1.5x of the pre-fault p99.
    const long long t_fail = 156000;
    const long long t_rejoin = 306000;
    ServingConfig cfg = quickServingConfig(4);
    cfg.record_completions = true;
    cfg.failover.chip_faults = {
        ChipFaultEvent{t_fail, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{t_rejoin, 1, ChipEventKind::Rejoin, 0},
    };
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 failoverTraffic(16, 120)));
    EXPECT_EQ(f.chip_failures, 1);
    EXPECT_EQ(f.chip_rejoins, 1);

    long long engaged_ticks = 0;
    for (int tier = 1; tier <= kNumDegradationTiers; ++tier)
        engaged_ticks += f.tier_residency[tier];
    EXPECT_GT(engaged_ticks, 0);
    EXPECT_EQ(f.degradation_tier, 0);

    const long long recovered_from =
        t_rejoin +
        (long long)(cfg.system.pipeline.roi_refresh) * cfg.frame_interval_us;
    std::vector<double> pre, recovered;
    ASSERT_EQ(eng.completionLogDropped(), 0);
    for (const CompletionRecord &c : eng.completionLog()) {
        if (c.completion_us < t_fail)
            pre.push_back(c.latency_us);
        else if (c.completion_us >= recovered_from)
            recovered.push_back(c.latency_us);
    }
    ASSERT_FALSE(pre.empty());
    ASSERT_FALSE(recovered.empty());
    EXPECT_LE(percentile(recovered, 0.99), 1.5 * percentile(pre, 0.99));
}

TEST(ServingEngine, DeadFleetShedsPendingWorkAndDrainTerminates)
{
    // The only chip dies with no rejoin scheduled: whatever is
    // queued or retrying can never be served. drain() must detect
    // the dead fleet, shed the backlog as failover drops, and
    // terminate rather than tick forever.
    ServingConfig cfg = quickServingConfig(1);
    cfg.failover.chip_faults = {
        ChipFaultEvent{20000, 0, ChipEventKind::Fail, 0},
    };
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 failoverTraffic(2, 40)));
    EXPECT_EQ(f.chip_failures, 1);
    EXPECT_EQ(f.chip_rejoins, 0);
    EXPECT_GT(f.drops_failover, 0);
    EXPECT_GT(f.completed, 0); // pre-outage frames were served
    EXPECT_EQ(f.submitted, f.completed + f.queue_drops);
}

TEST(ServingEngine, AdmissionRejectsAtTierFour)
{
    HealthControllerConfig hcfg;
    hcfg.engage_ticks = 1;
    FleetHealthController hc(hcfg);
    FleetSignal crush;
    crush.utilization = 50.0;
    for (int i = 0; i < 4; ++i)
        hc.update(crush);
    ASSERT_TRUE(hc.admissionClosed());

    // Engine-level: a fleet whose only chip died (no rejoin) climbs
    // to tier 4 and rejects new sessions with a typed Overloaded.
    ServingConfig cfg = quickServingConfig(1);
    cfg.admission_max_utilization = 100.0; // isolate the tier gate
    cfg.failover.chip_faults = {
        ChipFaultEvent{5000, 0, ChipEventKind::Fail, 0},
    };
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    ASSERT_TRUE(eng.openSession().ok());
    FrameTicket t;
    ASSERT_TRUE(eng.submitFrame(0, t).isOk());
    // Enough ticks for the dead-fleet pressure to walk the ladder
    // to tier 4 (one rung per engage window).
    eng.advanceTo(40000);
    EXPECT_EQ(eng.fleetMetrics().degradation_tier, 4);
    const Result<int> r = eng.openSession();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::Overloaded);
    eng.stop(/*drain_first=*/false);
}

TEST(ServingEngine, FleetMetricsCarryFailoverCounters)
{
    ServingConfig cfg = quickServingConfig(2);
    disableDegradationLadder(cfg);
    cfg.failover.chip_faults = {
        ChipFaultEvent{30000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{90000, 1, ChipEventKind::Rejoin, 0},
    };
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    eng.runTrace(makeTraffic(servingTestRenderer(),
                             failoverTraffic(16, 40)));
    const FleetMetrics fm = eng.fleetMetrics();
    EXPECT_EQ(fm.chip_failures, 1);
    EXPECT_EQ(fm.chip_rejoins, 1);
    EXPECT_GT(fm.redispatched_frames, 0);
}

TEST(ServingEngine, WarnCountersSurfaceInHealthReport)
{
    // Satellite of the failover PR: warnLimited()'s per-key
    // occurrence/suppression counts surface through healthReport()
    // so suppressed warnings are visible in serving health, not just
    // lost log lines.
    resetWarnRateLimiter();
    setWarnRateLimit(WarnRateLimit{3, 1000});
    for (int i = 0; i < 10; ++i)
        warnLimited("test.failover.warn_counter_probe",
                    "probe warning %d", i);
    core::EyeCoDSystem sys{servingTestSystem()};
    const core::HealthReport report = sys.healthReport();
    bool found = false;
    for (const WarnKeyCount &w : report.warnings) {
        if (w.key != "test.failover.warn_counter_probe")
            continue;
        found = true;
        EXPECT_EQ(w.occurrences, 10);
        EXPECT_EQ(w.suppressed, 7); // 3 emitted, 7 swallowed
    }
    EXPECT_TRUE(found);
    setWarnRateLimit(WarnRateLimit{});
    resetWarnRateLimiter();
}

TEST(ServingEngine, DegradedResolutionFramesStillEmitFiniteGaze)
{
    // Drive the fleet hard enough to hold tier >= 2 and check the
    // tier-2 half-resolution path functionally: gaze outputs stay
    // finite and the degraded-frame counter advances.
    ServingConfig cfg = quickServingConfig(1);
    cfg.record_gaze = true;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const FleetMetrics f =
        eng.runTrace(makeTraffic(servingTestRenderer(),
                                 failoverTraffic(8, 40)));
    EXPECT_GT(f.degraded_res_frames, 0);
    for (int s = 0; s < eng.sessionCount(); ++s)
        for (const dataset::GazeVec &g : eng.sessionGazeLog(s))
            EXPECT_TRUE(std::isfinite(g[0]) && std::isfinite(g[1]) &&
                        std::isfinite(g[2]));
}

TEST(ServingEngine, EmptyFaultScheduleMatchesCleanEngineBitwise)
{
    // The zero-fault identity: an engine with an (empty) chaos
    // schedule from zero fault rates must be bitwise identical to an
    // engine with no failover config at all — same gaze bits, same
    // drop log, same metrics JSON.
    const auto traffic = makeTraffic(servingTestRenderer(),
                                     failoverTraffic(4, 30));
    auto signature = [&](const ServingConfig &cfg) {
        ServingEngine eng(cfg, servingTestEstimator(),
                          servingTestRenderer());
        eng.runTrace(traffic);
        PerfJson json;
        eng.exportMetrics(json, "serving");
        std::string sig = json.serialize();
        char buf[96];
        for (int s = 0; s < eng.sessionCount(); ++s)
            for (const dataset::GazeVec &g : eng.sessionGazeLog(s)) {
                std::snprintf(buf, sizeof(buf), "%a,%a,%a;", g[0],
                              g[1], g[2]);
                sig += buf;
            }
        return sig;
    };
    ServingConfig clean = quickServingConfig(2);
    clean.record_gaze = true;
    ServingConfig chaos = clean;
    ChaosScheduleConfig cc; // all-zero fault rates
    cc.horizon_us = 500000;
    chaos.failover.chip_faults = makeChipFaultSchedule(
        cc, chaos.system.hw, chaos.virtual_chips);
    EXPECT_TRUE(chaos.failover.chip_faults.empty());
    EXPECT_EQ(signature(clean), signature(chaos));
}

/**
 * Feed both engines one identical tick of traffic: every session
 * submits a frame each 4th tick (1 chip cannot keep up with 8 such
 * streams, so pressure builds), then virtual time advances one tick.
 */
void
driveLockstepTick(ServingEngine &eng, const std::vector<int> &ids,
                  long long t, long long tick_us)
{
    if ((t / tick_us) % 4 == 0)
        for (int id : ids) {
            dataset::EyeParams params;
            params.yaw_deg = double(t % 7000) * 0.002 - 7.0;
            const Status s = eng.submitFrame(
                id, FrameTicket{long(t / (4 * tick_us)), t, params});
            ASSERT_TRUE(s.isOk()) << s.toString();
        }
    eng.advanceTo(t);
}

TEST(ServingEngine, SnapshotMidLadderRestoresResidencyExactly)
{
    // Degradation-ladder state must checkpoint mid-escalation: a
    // snapshot taken with tier >= 1 engaged restores the tier,
    // transition count, and per-tier residency clocks exactly — and
    // the restored controller continues counting from there (the
    // hysteresis streaks are not re-armed by the restore).
    ServingConfig cfg = quickServingConfig(1);
    ServingEngine victim(cfg, servingTestEstimator(),
                         servingTestRenderer());
    std::vector<int> ids;
    for (int i = 0; i < 8; ++i) {
        const Result<int> r = victim.openSession();
        ASSERT_TRUE(r.ok());
        ids.push_back(r.value());
    }
    long long t = 0;
    while (victim.healthController().tier() < 1) {
        ASSERT_LT(t, 2000000) << "overload never engaged tier 1";
        t += cfg.tick_us;
        driveLockstepTick(victim, ids, t, cfg.tick_us);
    }

    const std::vector<uint8_t> snapshot = victim.saveSnapshot();
    ServingEngine resumed(cfg, servingTestEstimator(),
                          servingTestRenderer());
    const Status restored = resumed.restoreSnapshot(snapshot);
    ASSERT_TRUE(restored.isOk()) << restored.toString();

    const FleetHealthController &a = victim.healthController();
    const FleetHealthController &b = resumed.healthController();
    EXPECT_GE(b.tier(), 1);
    EXPECT_EQ(b.tier(), a.tier());
    EXPECT_EQ(b.transitions(), a.transitions());
    EXPECT_EQ(b.lastPressure(), a.lastPressure());
    for (int tier = 0; tier <= kNumDegradationTiers; ++tier)
        EXPECT_EQ(b.residencyTicks(tier), a.residencyTicks(tier))
            << "tier " << tier;

    // Continue both in lockstep: residency clocks and the ladder
    // walk must stay identical tick for tick.
    for (int step = 0; step < 200; ++step) {
        t += cfg.tick_us;
        driveLockstepTick(victim, ids, t, cfg.tick_us);
        driveLockstepTick(resumed, ids, t, cfg.tick_us);
    }
    EXPECT_EQ(resumed.healthController().tier(),
              victim.healthController().tier());
    EXPECT_EQ(resumed.healthController().transitions(),
              victim.healthController().transitions());
    for (int tier = 0; tier <= kNumDegradationTiers; ++tier)
        EXPECT_EQ(resumed.healthController().residencyTicks(tier),
                  victim.healthController().residencyTicks(tier))
            << "tier " << tier;
}

TEST(ServingEngine, SnapshotMidBackoffContinuesRetryStateExactly)
{
    // A snapshot taken while failed-over frames wait out their
    // exponential backoff must restore the retry queue exactly: same
    // pending count at the restore point, and a bitwise-identical
    // remainder of the run (every retry re-dispatched or shed the
    // same way, every failover counter equal).
    ServingConfig cfg = quickServingConfig(2);
    disableDegradationLadder(cfg);
    cfg.failover.chip_faults = {
        ChipFaultEvent{30000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{90000, 1, ChipEventKind::Rejoin, 0},
    };
    ServingEngine victim(cfg, servingTestEstimator(),
                         servingTestRenderer());
    std::vector<int> ids;
    for (int i = 0; i < 16; ++i) {
        const Result<int> r = victim.openSession();
        ASSERT_TRUE(r.ok());
        ids.push_back(r.value());
    }
    long long t = 0;
    while (victim.pendingRetries() == 0) {
        ASSERT_LT(t, 200000) << "chip outage stranded no frames";
        t += cfg.tick_us;
        driveLockstepTick(victim, ids, t, cfg.tick_us);
    }
    EXPECT_EQ(victim.fleetMetrics().chip_failures, 1);

    const std::vector<uint8_t> snapshot = victim.saveSnapshot();
    ServingEngine resumed(cfg, servingTestEstimator(),
                          servingTestRenderer());
    const Status restored = resumed.restoreSnapshot(snapshot);
    ASSERT_TRUE(restored.isOk()) << restored.toString();
    ASSERT_GT(resumed.pendingRetries(), 0u);
    EXPECT_EQ(resumed.pendingRetries(), victim.pendingRetries());
    EXPECT_EQ(resumed.now(), victim.now());

    // Continue both in lockstep through the rejoin, then drain, and
    // require identical books: the retry backoffs elapsed the same
    // way, re-dispatches landed the same way, nothing double-served.
    for (int step = 0; step < 100; ++step) {
        t += cfg.tick_us;
        driveLockstepTick(victim, ids, t, cfg.tick_us);
        driveLockstepTick(resumed, ids, t, cfg.tick_us);
    }
    victim.drain();
    resumed.drain();
    PerfJson va, rb;
    victim.exportMetrics(va, "serving");
    resumed.exportMetrics(rb, "serving");
    EXPECT_EQ(va.serialize(), rb.serialize());
    const FleetMetrics fv = victim.fleetMetrics();
    const FleetMetrics fr = resumed.fleetMetrics();
    EXPECT_GT(fr.redispatched_frames, 0);
    EXPECT_EQ(fr.redispatched_frames, fv.redispatched_frames);
    EXPECT_EQ(fr.drops_failover, fv.drops_failover);
    EXPECT_EQ(fr.chip_failures, fv.chip_failures);
    EXPECT_EQ(fr.chip_rejoins, fv.chip_rejoins);
}

} // namespace
} // namespace serve
} // namespace eyecod
