/**
 * @file
 * One user session inside the serving engine: a private
 * core::EyeCoDSystem (predict-then-focus pipeline + degradation FSM
 * + health counters), the session's bounded frame queue, and its
 * serving metrics.
 *
 * Sessions own no threads. The engine's scheduler dispatches a
 * session's frames strictly in order and at most one scheduler chunk
 * touches a session per tick, so per-session state needs no locking
 * and the functional gaze stream is bitwise independent of the
 * scheduler thread count.
 */

#ifndef EYECOD_SERVE_SESSION_H
#define EYECOD_SERVE_SESSION_H

#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/eyecod.h"
#include "serve/frame_queue.h"

namespace eyecod {
namespace serve {

/** Serving-side per-session counters and latency statistics. */
struct SessionMetrics
{
    long long submitted = 0;      ///< Frames pushed at the queue.
    long long completed = 0;      ///< Frames served to completion.
    /** Total shed frames, every reason (the accounting identity
     *  submitted == completed + queue_drops spans all shedding). */
    long long queue_drops = 0;
    // queue_drops broken out by DropReason:
    long long drops_backpressure = 0;   ///< Drop-oldest eviction.
    long long drops_shed_on_close = 0;  ///< Session close / stop.
    long long drops_rate_downgrade = 0; ///< Tier-3 rate shedding.
    long long drops_failover = 0;       ///< Retries exhausted.
    long long pipeline_drops = 0; ///< Served frames the pipeline
                                  ///  reported as FrameDropped.
    long long deadline_misses = 0; ///< Completions past deadline.
    long long max_queue_depth = 0; ///< Deepest backlog observed.
    /** Completions that survived >= 1 chip failure (re-dispatched). */
    long long redispatched_frames = 0;
    /** Frames served at tier-2 reduced resolution. */
    long long degraded_res_frames = 0;
    /** Drops whose records no longer fit the bounded drop log. */
    long long drop_log_overflow = 0;
    // Hot-path allocation accounting (alloc hooks; zero without
    // them). "Steady" frames are served gaze-only frames — no ROI
    // refresh, no drop — which the memory spine requires to perform
    // zero heap allocations; refresh/dropped frames are reported
    // separately since segmentation allocates per call by design.
    long long steady_frames = 0;  ///< Served frames, no ROI refresh.
    long long steady_allocs = 0;  ///< Heap allocations on those.
    long long refresh_frames = 0; ///< Refresh or dropped frames.
    long long refresh_allocs = 0; ///< Heap allocations on those.
    RunningStat latency_us;       ///< Completion - arrival.
    /** Streaming p50/p95/p99 of frame latency (microseconds). */
    StreamingHistogram latency_hist{1.0, 1e8};
    /** Shed frames, in drop order (replayable drop decisions).
     *  Bounded: Session::recordDrop caps it and counts overflow. */
    std::vector<DropRecord> drop_log;
};

/**
 * Aggregated per-session health: serving-side counters plus the
 * wrapped system's pipeline/accelerator health report.
 */
struct SessionHealth
{
    SessionMetrics metrics;
    core::HealthReport pipeline; ///< From EyeCoDSystem::healthReport.
    bool active = false;         ///< Still admitted (not closed).
};

/**
 * One admitted user session.
 */
class Session
{
  public:
    /**
     * @param id engine-assigned session id.
     * @param cfg per-session system configuration (pipeline flavour,
     *        extents; the accelerator configs ride along unused by
     *        the functional path).
     * @param trained gaze estimator fitted on the prototype
     *        pipeline; copied so sessions never retrain.
     * @param queue_capacity bounded frame queue depth.
     * @param record_gaze keep the emitted gaze stream for
     *        determinism checks (tests) when true.
     * @param drop_log_cap bound on the per-session drop log; records
     *        past the cap are counted in drop_log_overflow instead
     *        of growing the log (detlint R8's concern made real).
     */
    Session(int id, const core::SystemConfig &cfg,
            const eyetrack::RidgeGazeEstimator &trained,
            size_t queue_capacity, bool record_gaze,
            size_t drop_log_cap = 4096);

    /** Engine-assigned id. */
    int id() const { return id_; }

    /** True until closeSession(). */
    bool active() const { return active_; }
    /** Mark the session closed. */
    void deactivate() { active_ = false; }

    /** The session's bounded frame queue. */
    BoundedFrameQueue &queue() { return queue_; }
    const BoundedFrameQueue &queue() const { return queue_; }

    /**
     * Serve one dispatched frame functionally (render + pipeline)
     * and return the typed outcome. Called by exactly one scheduler
     * chunk at a time.
     *
     * With @p degraded_resolution (degradation tier >= 2) the scene
     * round-trips through a half-linear-resolution buffer on the
     * zero-copy resizeBilinearInto path before entering the fixed-
     * extent pipeline: the gaze quality cost of serving cheaper
     * frames is modelled functionally, not just in the timing.
     */
    Result<core::GazeSample> serveFrame(
        const dataset::SyntheticEyeRenderer &renderer,
        const FrameTicket &ticket, bool degraded_resolution = false);

    /**
     * Account one shed frame: total + per-reason counters, and the
     * bounded drop log (overflow counted, never grown past the cap).
     */
    void recordDrop(const DropRecord &record);

    /** Serving metrics (mutated by the engine's serial sections). */
    SessionMetrics &metrics() { return metrics_; }
    const SessionMetrics &metrics() const { return metrics_; }

    /** Combined serving + pipeline health. */
    SessionHealth health() const;

    /** Emitted gaze stream (empty unless record_gaze). */
    const std::vector<dataset::GazeVec> &gazeLog() const
    {
        return gaze_log_;
    }

    /** Pooling stats of the session pipeline's frame arena. */
    const BufferArena::Stats &arenaStats() const
    {
        return system_.arenaStats();
    }

    /**
     * Serialize the session's full serve-time state: liveness,
     * metrics (counters, latency stat + histogram, bounded drop
     * log), gaze stream (record_gaze only), the wrapped system's
     * pipeline FSM, and the queued frame tickets.
     */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /**
     * Restore into a session constructed with the same id and
     * configuration (the engine rebuilds sessions from config before
     * restoring). Typed errors on any mismatch or corrupt field.
     */
    [[nodiscard]] Status
    restoreSnapshot(snap::SnapshotReader &r)
    {
        fields(*this, r);
        return r.status();
    }

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &s, Ar &ar)
    {
        ar.tag(0x53455331); // "SES1"
        ar.expect(s.id_);
        ar.field(s.active_);
        ar.expect(s.record_gaze_);
        auto &m = s.metrics_;
        ar.field(m.submitted);
        ar.field(m.completed);
        ar.field(m.queue_drops);
        ar.field(m.drops_backpressure);
        ar.field(m.drops_shed_on_close);
        ar.field(m.drops_rate_downgrade);
        ar.field(m.drops_failover);
        ar.field(m.pipeline_drops);
        ar.field(m.deadline_misses);
        ar.field(m.max_queue_depth);
        ar.field(m.redispatched_frames);
        ar.field(m.degraded_res_frames);
        ar.field(m.drop_log_overflow);
        ar.field(m.steady_frames);
        ar.field(m.steady_allocs);
        ar.field(m.refresh_frames);
        ar.field(m.refresh_allocs);
        ar.field(m.latency_us);
        ar.field(m.latency_hist);
        ar.items(m.drop_log, uint64_t(s.drop_log_cap_));
        ar.field(s.last_gaze_);
        // Tests record a few thousand frames; more is corrupt input.
        ar.items(s.gaze_log_, uint64_t(1) << 22);
        ar.field(s.last_degraded_);
        ar.field(s.system_);
        ar.field(s.queue_);
    }

  private:
    int id_;
    bool active_ = true;
    bool record_gaze_;
    size_t drop_log_cap_;
    core::EyeCoDSystem system_;
    BoundedFrameQueue queue_;
    SessionMetrics metrics_;
    dataset::GazeVec last_gaze_{0, 0, 1};
    std::vector<dataset::GazeVec> gaze_log_;
    /** Persistent render target, sized by the constructor:
     *  renderInto() reuses its storage, so steady-state serving
     *  allocates nothing for the scene. Not snapshotted: repainted
     *  every frame. */
    dataset::EyeSample sample_;
    /** Tier-2 scratch: half-resolution + restored scenes. Both reuse
     *  their storage, so degraded steady frames stay zero-alloc after
     *  the first downgrade transition. Not snapshotted: repainted
     *  before first use. */
    Image lowres_;
    Image restored_;
    /** Previous frame's resolution mode, to classify downgrade /
     *  recover transition frames out of the steady-alloc bucket. */
    bool last_degraded_ = false;
};

} // namespace serve
} // namespace eyecod

#endif // EYECOD_SERVE_SESSION_H
