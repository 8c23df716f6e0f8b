/**
 * @file
 * Multi-session serving engine: N user sessions sharing the
 * functional CPU substrate and K virtual accelerator instances.
 *
 * Architecture (DESIGN.md sections 9 and 12):
 *
 *  - each admitted session owns a PredictThenFocusPipeline (via
 *    core::EyeCoDSystem) and a bounded drop-oldest frame queue;
 *    producers never block;
 *  - a deadline-aware scheduler runs in discrete virtual-time ticks.
 *    Every tick it forms cross-session batches from ready frames in
 *    earliest-deadline order (uniform relative deadlines make that
 *    earliest-arrival order, tie-broken by session id) and assigns
 *    one batch to every idle virtual chip; frames that find no idle
 *    chip wait in their bounded queue, which is where backpressure
 *    drops come from;
 *  - the functional work of one tick is executed on a shared
 *    common::ThreadPool — the same deterministic substrate the
 *    nn::ThreadedBackend runs on — with one chunk per session, so
 *    results are bitwise identical at any scheduler thread count;
 *  - frame *timing* comes from the cycle-level accelerator model
 *    (serve/virtual_accel.h), in virtual microseconds. No wall
 *    clock is read anywhere, which makes a serving run fully
 *    replayable: same seed and trace => identical gaze streams,
 *    drop decisions, and metrics;
 *  - chips are mortal: a scripted (or hw_faults-seeded) schedule can
 *    fail chips, rejoin them, or retire their MAC lanes mid-run.
 *    Batches in flight on a failed chip are re-dispatched to
 *    survivors with bounded retries and capped exponential backoff
 *    (all in virtual time); a frame is functionally served exactly
 *    once — re-dispatch re-bills its timing, never its gaze;
 *  - a FleetHealthController (serve/health.h) watches raw fleet
 *    pressure and walks the four-tier degradation ladder:
 *    drop-oldest -> resolution downgrade -> refresh-rate downgrade
 *    -> admission reject, with hysteresis on both edges;
 *  - admission control rejects sessions with a typed
 *    ErrorCode::Overloaded once projected fleet utilization exceeds
 *    the configured bound, or while the ladder sits at tier 4.
 */

#ifndef EYECOD_SERVE_ENGINE_H
#define EYECOD_SERVE_ENGINE_H

#include <memory>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "common/thread_pool.h"
#include "serve/health.h"
#include "serve/session.h"
#include "serve/traffic.h"
#include "serve/virtual_accel.h"

namespace eyecod {
namespace serve {

/** Chip fault schedule + re-dispatch policy. */
struct FailoverConfig
{
    /**
     * Chip lifecycle events in virtual time (scripted, or generated
     * by makeChipFaultSchedule from the PR-3 seeded fault model).
     * Empty = every chip healthy forever, and the engine's outputs
     * are bitwise identical to the pre-failover engine.
     */
    std::vector<ChipFaultEvent> chip_faults;
    /** Re-dispatch attempts per frame after its chip fails. */
    int max_retries = 3;
    /** First retry backoff, virtual microseconds. */
    long long backoff_base_us = 2000;
    /** Backoff growth cap (exponential, then clamped). */
    long long backoff_cap_us = 16000;
};

/** Serving engine configuration. */
struct ServingConfig
{
    /** Per-session system prototype (pipeline flavour, extents). */
    core::SystemConfig system;
    /** Virtual accelerator instances serving the fleet. */
    int virtual_chips = 2;
    /** Weight-staging share amortized across a batch, [0, 1). */
    double batch_amortized_fraction = 0.3;
    /** Largest cross-session batch per chip dispatch. */
    int max_batch = 8;
    /** Hard cap on concurrently admitted sessions. */
    int max_sessions = 64;
    /** Bounded per-session frame queue depth. */
    size_t queue_capacity = 8;
    /** Nominal per-user frame period (240 FPS default). */
    long long frame_interval_us = 4167;
    /** Relative frame deadline (two frame periods default). */
    long long deadline_us = 8334;
    /** Scheduler quantum in virtual microseconds. */
    long long tick_us = 1000;
    /**
     * Admission bound on projected fleet utilization (demand /
     * capacity). > 1 permits over-subscription served with bounded
     * drops; sessions beyond the bound are rejected as Overloaded.
     */
    double admission_max_utilization = 2.0;
    /** Scheduler thread-pool width; 0 = hardware concurrency. */
    int scheduler_threads = 0;
    /** Record per-session gaze streams (determinism tests). */
    bool record_gaze = false;
    /** Chip failure schedule + retry/backoff policy. */
    FailoverConfig failover;
    /** Degradation-ladder thresholds + hysteresis. */
    HealthControllerConfig degradation;
    /**
     * Service-cost multiplier for tier-2 reduced-resolution frames
     * (half linear resolution quarters the pixels, but the gaze
     * stage's cost share is resolution-independent).
     * resolutionCostFactor() predicts it for a given pipeline and
     * hardware; assign that here to bill by the prediction.
     */
    double resolution_cost_factor = 0.6;
    /** Tier-3 stride: every stride-th submitted frame is shed. */
    int rate_downgrade_stride = 3;
    /** Bound on each session's drop log (overflow counted). */
    size_t drop_log_cap = 4096;
    /** Keep a bounded per-completion record log (chaos bench). */
    bool record_completions = false;
    /** Completion-log bound when record_completions is set. */
    size_t completion_log_cap = 1u << 20;
};

/** Fleet-wide aggregate metrics. */
struct FleetMetrics
{
    long long submitted = 0;
    long long completed = 0;
    long long queue_drops = 0;       ///< All shed frames, any reason.
    // queue_drops by DropReason:
    long long drops_backpressure = 0;
    long long drops_shed_on_close = 0;
    long long drops_rate_downgrade = 0;
    long long drops_failover = 0;
    long long pipeline_drops = 0;
    long long deadline_misses = 0;
    long long sessions_opened = 0;
    long long sessions_rejected = 0;
    long long sessions_closed = 0;
    // Failover + degradation counters:
    long long chip_failures = 0;     ///< Whole-chip outages seen.
    long long chip_rejoins = 0;      ///< Chips back in service.
    long long lanes_retired = 0;     ///< MAC lanes mapped out.
    long long redispatched_frames = 0; ///< Completions that survived
                                       ///  >= 1 chip failure.
    long long degraded_res_frames = 0; ///< Tier-2 served frames.
    long long drop_log_overflow = 0; ///< Drop records past the cap.
    int degradation_tier = 0;        ///< Ladder position right now.
    long long tier_transitions = 0;  ///< Ladder moves, both ways.
    /** Scheduler ticks spent at each tier (0..4). */
    long long tier_residency[kNumDegradationTiers + 1] = {};
    double aggregate_fps = 0.0;      ///< Completed / makespan.
    double backend_utilization = 0.0; ///< Chip busy share.
    double deadline_miss_rate = 0.0; ///< Misses / completed.
    double drop_rate = 0.0;          ///< Queue drops / submitted.
    double mean_latency_us = 0.0;
    double p50_latency_us = 0.0;
    double p95_latency_us = 0.0;
    double p99_latency_us = 0.0;
    double p999_latency_us = 0.0;
    /** p99 latency of re-dispatched completions (failover cost). */
    double failover_p99_latency_us = 0.0;
    long long makespan_us = 0;       ///< Last completion timestamp.
    // Memory-spine accounting (see SessionMetrics): heap allocations
    // on steady (gaze-only) vs refresh/dropped frames, summed over
    // sessions, and the largest per-session arena epoch footprint.
    long long steady_frames = 0;
    long long steady_allocs = 0;
    long long refresh_frames = 0;
    long long refresh_allocs = 0;
    long long peak_arena_bytes = 0;  ///< Max over sessions.
};

/** One finalized completion (record_completions only). */
struct CompletionRecord
{
    int session = -1;
    long frame_index = 0;
    long long arrival_us = 0;
    long long completion_us = 0;
    double latency_us = 0.0;
    bool redispatched = false; ///< Survived >= 1 chip failure.
    bool deadline_miss = false;

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &c, Ar &ar)
    {
        ar.field(c.session);
        ar.field(c.frame_index);
        ar.field(c.arrival_us);
        ar.field(c.completion_us);
        ar.field(c.latency_us);
        ar.field(c.redispatched);
        ar.field(c.deadline_miss);
    }
};

/**
 * The multi-session serving engine.
 */
class ServingEngine
{
  public:
    /**
     * @param cfg engine configuration.
     * @param trained fleet-trained gaze estimator copied into every
     *        admitted session.
     * @param renderer scene renderer shared (const) by all sessions;
     *        must outlive the engine.
     *
     * Panics on an invalid accelerator configuration (the service
     * model is derived in the constructor via the checked scheduler
     * entry; construction is a trusted configuration-time path).
     */
    ServingEngine(ServingConfig cfg,
                  const eyetrack::RidgeGazeEstimator &trained,
                  const dataset::SyntheticEyeRenderer &renderer);

    /** Timing model derived from the accelerator simulator. */
    const ServiceModel &serviceModel() const
    {
        return pool_.model();
    }

    /**
     * Projected fleet utilization (demand / capacity) with
     * @p additional_sessions more active sessions. Capacity reflects
     * surviving chips and their lane degradations.
     */
    double projectedUtilization(int additional_sessions) const;

    /**
     * Admit a new session. Fails with ErrorCode::Overloaded when the
     * session cap is reached, the projected utilization exceeds the
     * admission bound, or the degradation ladder sits at tier 4.
     * Returns the session id.
     */
    Result<int> openSession();

    /**
     * Close an admitted session: queued frames and pending retries
     * are shed (DropReason::ShedOnClose); frames already in flight
     * on a chip still finalize into the closed session's metrics.
     */
    Status closeSession(int id);

    /**
     * Enqueue one frame for @p id. Never blocks; a full queue sheds
     * its oldest frame into the session's drop log; at tier 3 every
     * rate_downgrade_stride-th frame is shed at admission. Fails
     * with InvalidArgument for unknown/closed sessions and after
     * stop().
     */
    Status submitFrame(int id, const FrameTicket &ticket);

    /** Current virtual time. */
    long long now() const { return virtual_now_; }

    /** Run scheduler ticks up to virtual time @p target_us. */
    void advanceTo(long long target_us);

    /**
     * Tick until every queue, retry slot, and chip is empty/idle.
     * If the whole fleet is down with no rejoin left in the
     * schedule, pending work is shed (DropReason::Failover) so the
     * drain terminates.
     */
    void drain();

    /**
     * Stop the engine. With @p drain_first, serve every queued frame
     * to completion before retiring the scheduler workers (no frame
     * is lost); otherwise shed remaining queued frames as drops and
     * finalize work already in flight. Idempotent; the engine stays
     * queryable afterwards.
     */
    void stop(bool drain_first = true);

    /**
     * Convenience driver: replay a scripted trace — opening sessions
     * at their join times (admission applies), submitting frames at
     * their arrival times, closing churned sessions at their leave
     * times — then drain and return the fleet metrics.
     */
    FleetMetrics runTrace(const std::vector<SessionTraffic> &traffic);

    /** Sessions currently admitted and not closed. */
    int activeSessions() const;

    /** Total sessions ever admitted (ids are 0..count-1). */
    int sessionCount() const { return int(sessions_.size()); }

    /** Serving metrics of session @p id. */
    const SessionMetrics &sessionMetrics(int id) const;

    /**
     * Serving + pipeline health of session @p id. Fleet failover
     * counters and the degradation-tier position are fleetMetrics().
     */
    SessionHealth sessionHealth(int id) const;

    /** Emitted gaze stream of session @p id (record_gaze only). */
    const std::vector<dataset::GazeVec> &sessionGazeLog(int id) const;

    /** Aggregate fleet metrics. */
    FleetMetrics fleetMetrics() const;

    /** The degradation-ladder controller (tier, residency). */
    const FleetHealthController &healthController() const
    {
        return health_;
    }

    /** The virtual chip pool (liveness, degraded models). */
    const VirtualAccelPool &pool() const { return pool_; }

    /** Finalized completions, in completion order
     *  (record_completions only; bounded by completion_log_cap). */
    const std::vector<CompletionRecord> &completionLog() const
    {
        return completion_log_;
    }

    /** Completions that no longer fit the bounded completion log. */
    long long completionLogDropped() const
    {
        return completion_log_dropped_;
    }

    /**
     * Export fleet metrics into @p json under section @p section,
     * plus one "<section>.s<id>" subsection per session.
     */
    void exportMetrics(PerfJson &json,
                       const std::string &section) const;

    /** Configuration in use. */
    const ServingConfig &config() const { return cfg_; }

    /** Frames waiting out a failover backoff right now. */
    size_t pendingRetries() const { return retry_.size(); }

    /**
     * Serialize the engine's complete serve-time state into a sealed,
     * versioned snapshot: virtual clock, in-flight batches, retry
     * backoff queue, chip pool, degradation ladder, completion log,
     * and every session (pipeline FSM, RNG streams, metrics, queued
     * frames). Snapshots are taken at tick boundaries — call between
     * advanceTo() steps, never concurrently with one.
     *
     * NOT captured (configuration, rebuilt on restore): the serving
     * config, the trained estimator, the renderer, the fault
     * schedule, and per-tick scheduler scratch.
     */
    std::vector<uint8_t> saveSnapshot() const;

    /**
     * Restore a snapshot into an engine constructed with the same
     * configuration, estimator, and renderer. On success the engine
     * continues bitwise identically to the run that saved the
     * snapshot. Returns typed errors — CorruptSnapshot for damaged
     * or mismatched bytes, VersionMismatch for a foreign format
     * version — and never crashes on hostile input. On failure the
     * engine state is unspecified; discard the engine.
     */
    [[nodiscard]] Status restoreSnapshot(
        const std::vector<uint8_t> &data);

  private:
    /** One dispatched frame in flight through a tick. */
    struct PendingFrame
    {
        int session = -1;     ///< Session index.
        FrameTicket ticket;
        int batch = -1;       ///< Owning batch index this tick.
        bool refresh = false; ///< Functional pass ran segmentation.
        bool degraded_res = false; ///< Served at tier-2 resolution.
        bool pipeline_drop = false; ///< Typed FrameDropped/other.
        int attempts = 1;     ///< Dispatch attempts incl. this one.
        bool first_dispatch = true; ///< Run the functional pass.
    };

    /** One cross-session batch bound to an idle chip. */
    struct Batch
    {
        int chip = -1;
        std::vector<size_t> items; ///< Indices into the tick's
                                   ///  dispatched frames.
    };

    /** A frame riding a chip until its completion timestamp. */
    struct InFlightFrame
    {
        int session = -1;
        FrameTicket ticket;
        bool refresh = false;
        bool degraded_res = false;
        bool pipeline_drop = false;
        int attempts = 1;
    };

    /** The batch occupying one chip (at most one per chip). */
    struct InFlightBatch
    {
        bool active = false;
        long long completion_us = 0;
        std::vector<InFlightFrame> frames; ///< Pooled storage.
    };

    /** A frame whose chip failed, waiting out its backoff. */
    struct RetryFrame
    {
        InFlightFrame frame;
        long long eligible_us = 0; ///< Earliest re-dispatch time.
    };

    /**
     * The snapshot field list (common/snapshot.h) under the header
     * and seal. Restore rebuilds each session from configuration
     * before decoding into it.
     */
    template <class Self, class Ar>
    static void
    fields(Self &e, Ar &ar)
    {
        ar.tag(0x454e4731); // "ENG1"
        // Configuration fingerprint: restore refuses a snapshot taken
        // under a different serving shape (chip count, batch/queue
        // geometry, timing grid, logging switches). scheduler_threads
        // is deliberately absent — results are bitwise thread-count
        // independent, so a snapshot may be restored at any width.
        const ServingConfig &cfg = e.cfg_;
        ar.expect(cfg.virtual_chips);
        ar.expect(cfg.max_batch);
        ar.expect(cfg.max_sessions);
        ar.expect(uint64_t(cfg.queue_capacity));
        ar.expect(cfg.tick_us);
        ar.expect(cfg.frame_interval_us);
        ar.expect(cfg.deadline_us);
        ar.expect(cfg.rate_downgrade_stride);
        ar.expect(cfg.failover.max_retries);
        ar.expect(cfg.record_gaze);
        ar.expect(cfg.record_completions);
        ar.expect(uint64_t(cfg.drop_log_cap));
        ar.expect(uint64_t(cfg.completion_log_cap));

        // Virtual clock + engine-level counters.
        ar.field(e.virtual_now_);
        ar.field(e.next_tick_us_);
        ar.field(e.last_completion_us_);
        ar.field(e.rejected_sessions_);
        ar.field(e.closed_sessions_);
        ar.field(e.stopped_);
        ar.field(e.chip_failures_);
        ar.field(e.chip_rejoins_);
        ar.field(e.lanes_retired_);
        ar.field(e.completion_log_dropped_);
        ar.field(e.failover_latency_hist_);
        ar.field(e.pool_);
        ar.field(e.health_);

        // Sessions before the in-flight/retry state, so frame session
        // indices are validated against the restored table.
        ar.items(e.sessions_, kMaxSnapshotSessions, [&](auto &sess) {
            if constexpr (Ar::kLoading) // the slot index is the id
                sess = e.makeSession(int(&sess - e.sessions_.data()));
            ar.field(*sess);
        });
        auto frame = [&](auto &fr) {
            ar.field(fr.session);
            ar.check(fr.session >= 0 &&
                         size_t(fr.session) < e.sessions_.size(),
                     "in-flight frame session out of range");
            ar.field(fr.ticket);
            ar.field(fr.refresh);
            ar.field(fr.degraded_res);
            ar.field(fr.pipeline_drop);
            ar.field(fr.attempts);
            ar.check(fr.attempts >= 1, "in-flight frame attempts < 1");
        };
        // In-flight batches, one slot per chip.
        ar.expect(uint64_t(e.inflight_.size()));
        for (auto &b : e.inflight_) {
            ar.field(b.active);
            ar.field(b.completion_us);
            ar.items(b.frames, uint64_t(cfg.max_batch), frame);
        }
        // Failover retry queue, in order (order is scheduling-relevant).
        ar.items(e.retry_, kMaxSnapshotRetries, [&](auto &rf) {
            frame(rf.frame);
            ar.field(rf.eligible_us);
        });
        // Bounded completion log (record_completions only; may be
        // empty).
        ar.items(e.completion_log_, uint64_t(cfg.completion_log_cap));
    }

    /**
     * Corruption fences on hostile snapshot counts. Sessions and
     * retries are unbounded in principle (session ids are never
     * reused; the retry queue is bounded by frames in flight at
     * failure instants), so these are not policy limits.
     */
    static constexpr uint64_t kMaxSnapshotSessions = 1u << 20;
    static constexpr uint64_t kMaxSnapshotRetries = 1u << 20;

    /** A fresh session @p id built from the engine configuration. */
    std::unique_ptr<Session> makeSession(int id) const;

    Session &sessionRef(int id);
    const Session &sessionRef(int id) const;

    /** Run one scheduler tick at virtual_now_. */
    void runTick();

    /** Abort the batch on a failed chip: requeue or shed frames. */
    void abortInFlight(int chip, long long now_us);

    /** Finalize in-flight batches due by @p now_us, in
     *  (completion, chip) order. With @p force, finalize all. */
    void finalizeDue(long long now_us, bool force = false);

    /** Record one finalized batch's frames into session metrics. */
    void finalizeBatch(int chip);

    /** This tick's raw pressure signal for the health controller. */
    FleetSignal fleetSignal() const;

    /** Shed every queued + retrying frame (dead fleet / stop). */
    void shedPending(DropReason reason);

    /** True when any active session still has queued frames. */
    bool anyQueued() const;

    /** True while any chip carries an unfinalized batch. */
    bool anyInFlight() const;

    ServingConfig cfg_;
    const dataset::SyntheticEyeRenderer &renderer_;
    eyetrack::RidgeGazeEstimator trained_;
    VirtualAccelPool pool_;
    FleetHealthController health_;
    ThreadPool sched_pool_;
    std::vector<std::unique_ptr<Session>> sessions_;
    long long virtual_now_ = 0;
    long long next_tick_us_ = 0;
    long long last_completion_us_ = 0;
    long long rejected_sessions_ = 0;
    long long closed_sessions_ = 0;
    bool stopped_ = false;

    // Failover state.
    std::vector<InFlightBatch> inflight_; ///< One slot per chip.
    std::vector<RetryFrame> retry_;       ///< Backoff queue; bounded
                                          ///  by frames in flight at
                                          ///  failure times.
    long long chip_failures_ = 0;
    long long chip_rejoins_ = 0;
    long long lanes_retired_ = 0;
    StreamingHistogram failover_latency_hist_{1.0, 1e8};
    std::vector<CompletionRecord> completion_log_;
    long long completion_log_dropped_ = 0;

    // Tick scratch, reused across runTick() calls so the scheduler's
    // serial phases allocate nothing in steady state. Pooled entries
    // (batches_, by_session_) keep their inner vectors' capacity and
    // are bounded by num_batches_ / num_groups_ each tick.
    std::vector<PendingFrame> dispatched_;
    std::vector<Batch> batches_;
    size_t num_batches_ = 0;
    std::vector<char> chip_taken_;
    std::vector<double> costs_;
    std::vector<std::pair<int, std::vector<size_t>>> by_session_;
    size_t num_groups_ = 0;
    std::vector<size_t> retry_pick_; ///< Eligible retries this tick.
};

} // namespace serve
} // namespace eyecod

#endif // EYECOD_SERVE_ENGINE_H
