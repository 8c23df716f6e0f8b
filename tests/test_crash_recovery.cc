/**
 * @file
 * Crash-recovery tests of the serving engine's snapshot/restore
 * subsystem (DESIGN.md section 13): kill the engine at an arbitrary
 * virtual-time point — mid-batch, mid-failover-backoff, or with the
 * degradation ladder engaged — restore the snapshot into a fresh
 * engine, and prove the resumed run is **bitwise identical** to an
 * uninterrupted run, at 1 / 2 / 8 scheduler threads; and kill it
 * between checkpoints of a cadence grid, restore the newest one and
 * replay the lost suffix, with the same result.
 *
 * Plus the hostile-input side: a deterministic truncation + bit-flip
 * sweep over a real snapshot must always produce a typed
 * CorruptSnapshot / VersionMismatch error — never a crash, hang, or
 * sanitizer finding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "serving_test_util.h"

namespace eyecod {
namespace serve {
namespace {

/**
 * The trace flattened into the exact deterministic event order
 * ServingEngine::runTrace uses (joins before frames before leaves at
 * equal timestamps, then trace order), so a paused-and-resumed drive
 * interleaves events with scheduler ticks identically to runTrace.
 */
struct FlatEvent
{
    long long t = 0;
    int kind = 0; ///< 0 = join, 1 = frame, 2 = leave.
    int trace = 0;
    long frame = 0;
};

std::vector<FlatEvent>
flattenTrace(const std::vector<SessionTraffic> &traffic)
{
    std::vector<FlatEvent> events;
    for (size_t i = 0; i < traffic.size(); ++i) {
        events.push_back(FlatEvent{traffic[i].join_us, 0, int(i), 0});
        for (size_t f = 0; f < traffic[i].frames.size(); ++f)
            events.push_back(
                FlatEvent{traffic[i].frames[f].arrival_us, 1, int(i),
                          long(f)});
        if (traffic[i].leave_us >= 0)
            events.push_back(
                FlatEvent{traffic[i].leave_us, 2, int(i), 0});
    }
    std::sort(events.begin(), events.end(),
              [](const FlatEvent &a, const FlatEvent &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.trace != b.trace)
                      return a.trace < b.trace;
                  return a.frame < b.frame;
              });
    return events;
}

/**
 * Client-side driver state: which events were already applied and
 * the trace-index -> session-id admission map. A crashed client
 * persists this alongside the engine snapshot (it is the client's
 * state, not the engine's) — the harness copies it at the kill
 * point the same way.
 */
struct DriverState
{
    std::vector<int> ids;
    size_t next = 0;
};

/** Apply every event with t <= @p until, in order (runTrace logic). */
void
applyEventsUpTo(ServingEngine &eng,
                const std::vector<SessionTraffic> &traffic,
                const std::vector<FlatEvent> &events,
                DriverState &st, long long until)
{
    if (st.ids.empty())
        st.ids.assign(traffic.size(), -1);
    while (st.next < events.size() && events[st.next].t <= until) {
        const FlatEvent &ev = events[st.next];
        ++st.next;
        eng.advanceTo(ev.t);
        if (ev.kind == 0) {
            const Result<int> r = eng.openSession();
            if (r.ok())
                st.ids[size_t(ev.trace)] = r.value();
        } else if (ev.kind == 1 && st.ids[size_t(ev.trace)] >= 0) {
            const Status s = eng.submitFrame(
                st.ids[size_t(ev.trace)],
                traffic[size_t(ev.trace)]
                    .frames[size_t(ev.frame)]);
            ASSERT_TRUE(s.isOk()) << s.toString();
        } else if (ev.kind == 2 && st.ids[size_t(ev.trace)] >= 0) {
            const Status s =
                eng.closeSession(st.ids[size_t(ev.trace)]);
            ASSERT_TRUE(s.isOk()) << s.toString();
            st.ids[size_t(ev.trace)] = -1;
        }
    }
    eng.advanceTo(until);
}

/** Apply every remaining event and drain the engine. */
void
finishTrace(ServingEngine &eng,
            const std::vector<SessionTraffic> &traffic,
            const std::vector<FlatEvent> &events, DriverState &st)
{
    if (!events.empty())
        applyEventsUpTo(eng, traffic, events, st,
                        events.back().t);
    eng.drain();
}

/** Chaos config: chip 1 of 2 dies mid-run and rejoins, chip 0 loses
 *  lanes — the schedule from the serving-determinism chaos test. */
ServingConfig
chaosConfig(int threads)
{
    ServingConfig cfg = quickServingConfig(2, threads);
    cfg.record_gaze = true;
    cfg.failover.chip_faults = {
        ChipFaultEvent{34000, 1, ChipEventKind::Fail, 0},
        ChipFaultEvent{40000, 0, ChipEventKind::RetireLanes, 16},
        ChipFaultEvent{90000, 1, ChipEventKind::Rejoin, 0},
    };
    return cfg;
}

TrafficConfig
chaosTraffic()
{
    TrafficConfig tc;
    tc.sessions = 12;
    tc.frames_per_session = 30;
    tc.churn_stagger_us = 2000;
    tc.leave_every = 3;
    return tc;
}

/**
 * Run the kill/restore experiment at one scheduler width:
 *
 *  A. drive the full trace uninterrupted -> reference signature;
 *  B. drive a second engine tick by tick until @p kill_when holds
 *     (the "crash point"), snapshot, and abandon it;
 *  C. restore the snapshot into a third, freshly-constructed engine,
 *     check that re-saving it reproduces the snapshot byte for byte
 *     (and, for FlatCam sessions, that they image through the optics
 *     A's and B's sessions already hold), and drive the *remaining*
 *     inputs -> resumed signature.
 *
 * With @p cadence_ticks > 0, B instead checkpoints every that many
 * ticks, keeping the newest snapshot and the driver cursor saved
 * beside it, and takes none at the crash point: C restores that
 * checkpoint and replays the suffix the crash lost. That holds B's
 * earlier saves to leaving later state unchanged, and the replay to
 * being exact.
 *
 * Scheduler ticks are state-neutral pause points (advanceTo at a
 * tick boundary leaves exactly the state a longer advance passes
 * through), so A and B+C see identical event/tick interleavings and
 * the signatures must match byte for byte.
 */
void
runKillRestore(const ServingConfig &cfg, const TrafficConfig &tc,
               long long search_from,
               const std::function<bool(const ServingEngine &)>
                   &kill_when,
               const char *what, long long cadence_ticks = 0)
{
    const std::vector<SessionTraffic> traffic =
        makeTraffic(servingTestRenderer(), tc);
    const std::vector<FlatEvent> events = flattenTrace(traffic);
    const long long horizon =
        events.empty() ? 0 : events.back().t + 1000000;

    // A: uninterrupted reference.
    ServingEngine ref(cfg, servingTestEstimator(),
                      servingTestRenderer());
    DriverState ref_state;
    finishTrace(ref, traffic, events, ref_state);
    const std::string want = engineSignature(ref);

    // B: drive to the crash point, checkpointing on the cadence grid
    // or, without one, at the crash point.
    ServingEngine victim(cfg, servingTestEstimator(),
                         servingTestRenderer());
    DriverState victim_state;
    std::vector<uint8_t> snapshot;
    DriverState snapshot_state;
    long long t_snap = -1;
    int saves = 0;
    long long t_kill = -1;
    for (long long t = cfg.tick_us; t <= horizon; t += cfg.tick_us) {
        applyEventsUpTo(victim, traffic, events, victim_state, t);
        if (t >= search_from && kill_when(victim)) {
            t_kill = t;
            break;
        }
        if (cadence_ticks > 0 && (t / cfg.tick_us) % cadence_ticks == 0) {
            snapshot = victim.saveSnapshot();
            snapshot_state = victim_state;
            t_snap = t;
            ++saves;
        }
    }
    ASSERT_GE(t_kill, 0)
        << what << ": kill predicate never held before the horizon";
    ASSERT_TRUE(kill_when(victim));
    if (cadence_ticks == 0) {
        snapshot = victim.saveSnapshot();
        snapshot_state = victim_state;
        t_snap = t_kill;
    } else {
        ASSERT_GE(saves, 2) << what << ": no earlier save to hold";
    }
    ASSERT_FALSE(snapshot.empty());

    // C: restore into a fresh engine and finish the trace.
    ServingEngine resumed(cfg, servingTestEstimator(),
                          servingTestRenderer());
    const Status restored = resumed.restoreSnapshot(snapshot);
    ASSERT_TRUE(restored.isOk()) << restored.toString();
    EXPECT_EQ(resumed.now(), t_snap);
    // Restore rebuilt every session from configuration; nothing it
    // derived may differ from what was saved.
    EXPECT_TRUE(resumed.saveSnapshot() == snapshot)
        << what << ": re-saved snapshot differs from the restored one";
    if (cfg.system.pipeline.camera == eyetrack::CameraKind::FlatCam) {
        // A and B are alive, so the restored sessions must share their
        // decomposition rather than build one of their own.
        const auto optics = sessionOptics(cfg.system);
        EXPECT_EQ(optics.use_count(),
                  1 + 2 * (ref.sessionCount() + victim.sessionCount() +
                           resumed.sessionCount()))
            << what;
    }
    DriverState resumed_state = snapshot_state;
    finishTrace(resumed, traffic, events, resumed_state);
    expectSameSignature(want, engineSignature(resumed), what);
}

bool
anyChipMidBatch(const ServingEngine &eng)
{
    for (int c = 0; c < eng.pool().chips(); ++c)
        if (eng.pool().alive(c) &&
            eng.pool().busyUntil(c) > eng.now())
            return true;
    return false;
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledMidBatch)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        runKillRestore(chaosConfig(threads), chaosTraffic(), 20000,
                       anyChipMidBatch, "mid-batch kill");
    }
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledMidBackoff)
{
    // The chip-1 outage at t=34000 strands its in-flight frames in
    // the retry queue, where they wait out an exponential backoff;
    // the kill lands inside that window.
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        runKillRestore(
            chaosConfig(threads), chaosTraffic(), 34000,
            [](const ServingEngine &eng) {
                return eng.pendingRetries() > 0;
            },
            "mid-backoff kill");
    }
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledMidLadder)
{
    // One chip, eight users: sustained ~2x overload walks the
    // degradation ladder; the kill lands with tier >= 1 engaged.
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("scheduler_threads=" +
                     std::to_string(threads));
        ServingConfig cfg = quickServingConfig(1, threads);
        cfg.record_gaze = true;
        TrafficConfig tc;
        tc.sessions = 8;
        tc.frames_per_session = 30;
        runKillRestore(
            cfg, tc, 0,
            [](const ServingEngine &eng) {
                return eng.healthController().tier() >= 1;
            },
            "mid-ladder kill");
    }
}

TEST(CrashRecovery, ResumeIsBitwiseIdenticalKilledBetweenCheckpoints)
{
    // Checkpoint every 7, 13 or 23 ticks and crash 61 ms in, off all
    // three grids and inside the chip-1 outage: each resume restores
    // the checkpoint 5, 9 or 15 ticks back and replays from there.
    for (long long cadence : {7, 13, 23}) {
        SCOPED_TRACE("cadence_ticks=" + std::to_string(cadence));
        ServingConfig cfg = chaosConfig(1);
        cfg.record_completions = true;
        runKillRestore(
            cfg, chaosTraffic(), 61000,
            [](const ServingEngine &eng) {
                return eng.fleetMetrics().chip_failures == 1 &&
                       !eng.pool().alive(1);
            },
            "checkpoint-cadence kill", cadence);
    }
}

TEST(CrashRecovery, CompletionLogSurvivesRestore)
{
    // FlatCam sessions add the one piece of optics state a snapshot
    // carries: each sensor's read-noise stream position.
    for (const core::SystemConfig &sys :
         {servingTestSystem(), flatcamServingTestSystem()}) {
        const bool flatcam =
            sys.pipeline.camera == eyetrack::CameraKind::FlatCam;
        SCOPED_TRACE(flatcam ? "flatcam" : "lens");
        ServingConfig cfg = chaosConfig(1);
        cfg.system = sys;
        cfg.record_completions = true;
        runKillRestore(cfg, chaosTraffic(), 20000, anyChipMidBatch,
                       "completion-log kill");
    }
}

/** A small but state-rich snapshot for the hostile-input sweeps:
 *  killed mid-chaos, with retries pending and sessions churned. */
std::vector<uint8_t>
corpusSnapshot(const core::SystemConfig &sys = servingTestSystem())
{
    ServingConfig cfg = chaosConfig(1);
    cfg.system = sys;
    const std::vector<SessionTraffic> traffic =
        makeTraffic(servingTestRenderer(), chaosTraffic());
    const std::vector<FlatEvent> events = flattenTrace(traffic);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    DriverState st;
    applyEventsUpTo(eng, traffic, events, st, 36000);
    return eng.saveSnapshot();
}

TEST(CrashRecoveryHardening, TruncationSweepYieldsTypedErrors)
{
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    // Every prefix length with a deterministic stride (plus the
    // boundary-adjacent lengths) must fail with a typed error, never
    // crash: the seal catches all of them before any field decodes.
    for (size_t len = 0; len < snapshot.size();
         len += (len < 64 ? 1 : 499)) {
        std::vector<uint8_t> cut(snapshot.begin(),
                                 snapshot.begin() + long(len));
        const Status s = eng.restoreSnapshot(cut);
        ASSERT_FALSE(s.isOk()) << "prefix " << len << " decoded";
        ASSERT_TRUE(s.code() == ErrorCode::CorruptSnapshot ||
                    s.code() == ErrorCode::VersionMismatch)
            << "prefix " << len << ": " << s.toString();
    }
}

TEST(CrashRecoveryHardening, BitFlipSweepYieldsTypedErrors)
{
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    // Deterministic single-bit-flip sweep: every 997th byte (and the
    // whole header region), all eight bits. The checksum seal turns
    // every flip into CorruptSnapshot before decoding starts.
    std::vector<uint8_t> mutant = snapshot;
    for (size_t byte = 0; byte < snapshot.size();
         byte += (byte < 16 ? 1 : 997)) {
        for (int bit = 0; bit < 8; ++bit) {
            mutant[byte] =
                uint8_t(snapshot[byte] ^ (1u << bit));
            const Status s = eng.restoreSnapshot(mutant);
            ASSERT_FALSE(s.isOk())
                << "flip " << byte << ":" << bit << " decoded";
            ASSERT_EQ(s.code(), ErrorCode::CorruptSnapshot)
                << "flip " << byte << ":" << bit << ": "
                << s.toString();
        }
        mutant[byte] = snapshot[byte];
    }
}

TEST(CrashRecoveryHardening, ForeignVersionIsVersionMismatch)
{
    // A well-formed snapshot from a *future* format version: bump
    // the version word and re-seal so the checksum passes and the
    // header check is actually reached.
    std::vector<uint8_t> future = corpusSnapshot();
    ASSERT_GE(future.size(), size_t(16));
    const uint32_t v = snap::kSnapshotVersion + 1;
    future[4] = uint8_t(v & 0xffu);
    future[5] = uint8_t((v >> 8) & 0xffu);
    future[6] = uint8_t((v >> 16) & 0xffu);
    future[7] = uint8_t((v >> 24) & 0xffu);
    const size_t payload = future.size() - 8;
    const uint64_t sum = snap::fnv1a(future.data(), payload);
    for (int i = 0; i < 8; ++i)
        future[payload + size_t(i)] =
            uint8_t((sum >> (8 * i)) & 0xffu);

    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const Status s = eng.restoreSnapshot(future);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::VersionMismatch)
        << s.toString();
}

TEST(CrashRecoveryHardening, WrongConfigurationIsTypedError)
{
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    // Same trace, different fleet shape: 3 chips instead of 2.
    ServingConfig other = chaosConfig(1);
    other.virtual_chips = 3;
    ServingEngine eng(other, servingTestEstimator(),
                      servingTestRenderer());
    const Status s = eng.restoreSnapshot(snapshot);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot)
        << s.toString();
}

/** Recompute the trailing FNV-1a seal over an edited snapshot, so a
 *  restore gets past the integrity check to the field decoders. */
void
reseal(std::vector<uint8_t> &bytes)
{
    const size_t payload = bytes.size() - 8;
    const uint64_t sum = snap::fnv1a(bytes.data(), payload);
    for (int i = 0; i < 8; ++i)
        bytes[payload + size_t(i)] = uint8_t((sum >> (8 * i)) & 0xffu);
}

TEST(CrashRecoveryHardening, WireFormatIsPinned)
{
    // Every other snapshot test is self-consistent (save, restore,
    // save again), so a codec that changed a field's width on both
    // sides would pass them all. These are the byte counts and
    // FNV-1a hashes of the lens corpus and of the same drive with
    // FlatCam sessions, which adds each sensor's noise stream (SNS1)
    // inside its pipeline (PIP1); the values of x86-64
    // libstdc++/glibc.
    const std::vector<uint8_t> lens = corpusSnapshot();
    EXPECT_EQ(lens.size(), 824201u);
    EXPECT_EQ(snap::fnv1a(lens.data(), lens.size()), 0xaa61f42017f81459u)
        << std::hex << snap::fnv1a(lens.data(), lens.size());
    const std::vector<uint8_t> flatcam =
        corpusSnapshot(flatcamServingTestSystem());
    EXPECT_EQ(flatcam.size(), 900659u);
    EXPECT_EQ(snap::fnv1a(flatcam.data(), flatcam.size()),
              0x52f88358384f071cu)
        << std::hex << snap::fnv1a(flatcam.data(), flatcam.size());
}

TEST(CrashRecoveryHardening, ResealedFlipsYieldTypedErrors)
{
    // The sweeps above stop at the seal. Resealing each mutant sends
    // it on to the field decoders: one bit per byte over the
    // snapshot's head (header, configuration fingerprint, engine
    // counters) and tail (in-flight frames, retry queue, the last
    // sessions' queues), restored into one engine. Pixels of the
    // sessions' last views fill the middle; flips there decode OK.
    const std::vector<uint8_t> snapshot = corpusSnapshot();
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    const size_t payload = snapshot.size() - 8;
    const size_t edge = 768;
    int decoded = 0, corrupt_past_header = 0;
    std::vector<uint8_t> mutant = snapshot;
    for (size_t byte = 0; byte < payload;
         byte = (byte + 1 == edge ? payload - edge : byte + 1)) {
        mutant[byte] = uint8_t(snapshot[byte] ^ (1u << (byte % 8)));
        reseal(mutant);
        const Status s = eng.restoreSnapshot(mutant);
        ASSERT_TRUE(s.isOk() || s.code() == ErrorCode::CorruptSnapshot ||
                    s.code() == ErrorCode::VersionMismatch)
            << "flip at byte " << byte << ": " << s.toString();
        decoded += s.isOk();
        corrupt_past_header +=
            byte >= 8 && s.code() == ErrorCode::CorruptSnapshot;
        mutant[byte] = snapshot[byte];
    }
    EXPECT_GT(decoded, 0);
    EXPECT_GT(corrupt_past_header, 0);

    // Whatever the mutants left behind, a clean restore rebuilds the
    // engine exactly.
    const Status clean = eng.restoreSnapshot(snapshot);
    ASSERT_TRUE(clean.isOk()) << clean.toString();
    EXPECT_TRUE(eng.saveSnapshot() == snapshot);
}

TEST(CrashRecoveryHardening, HostileRetryCountIsCorrupt)
{
    // A zero-session engine's snapshot ends with its retry-queue
    // count, the completion-log count and the seal. A retry count of
    // 2^20 that no remaining byte backs must be refused before the
    // queue is sized from it.
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    std::vector<uint8_t> hostile = eng.saveSnapshot();
    ASSERT_EQ(hostile.size(), 2533u);
    const size_t retry_count = hostile.size() - 24;
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(hostile[retry_count + size_t(i)], 0u);
    hostile[retry_count + 2] = 0x10; // 1 << 20, little-endian
    reseal(hostile);
    const Status s = eng.restoreSnapshot(hostile);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot) << s.toString();
    EXPECT_EQ(eng.pendingRetries(), 0u);
}

TEST(CrashRecoveryHardening, EmptyAndTinyBuffersAreTypedErrors)
{
    const ServingConfig cfg = chaosConfig(1);
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(8),
                     size_t(15)}) {
        const std::vector<uint8_t> junk(n, 0xab);
        const Status s = eng.restoreSnapshot(junk);
        ASSERT_FALSE(s.isOk()) << n << "-byte buffer decoded";
        EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot)
            << s.toString();
    }
}

} // namespace
} // namespace serve
} // namespace eyecod
