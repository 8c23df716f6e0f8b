/**
 * @file
 * EyeCoD public API: the composed eye tracking system.
 *
 * An EyeCoDSystem bundles the two faces of the reproduction:
 *
 *  - the *functional* path — FlatCam sensing, Tikhonov
 *    reconstruction, predict-then-focus segmentation/ROI/gaze — which
 *    produces actual gaze vectors for actual (synthetic) eye images;
 *  - the *performance* path — the cycle-level accelerator simulator
 *    running the deployment workload (int8 RITNet + FBNet-C100 +
 *    reconstruction) — which produces throughput/energy numbers and
 *    the comparison against the Fig. 14 baseline platforms.
 *
 * Quickstart:
 * @code
 *   core::EyeCoDSystem sys{core::SystemConfig{}};
 *   dataset::SyntheticEyeRenderer eyes(
 *       {.image_size = sys.config().pipeline.scene_size});
 *   sys.train(eyes, 400);
 *   auto frame = sys.processFrame(eyes.sample(0).image);
 *   auto perf = sys.simulatePerformance();
 * @endcode
 */

#ifndef EYECOD_CORE_EYECOD_H
#define EYECOD_CORE_EYECOD_H

#include <memory>
#include <vector>

#include "accel/simulator.h"
#include "common/logging.h"
#include "eyetrack/pipeline.h"
#include "nn/runtime.h"
#include "platforms/platform.h"

namespace eyecod {
namespace core {

/** Whole-system configuration. */
struct SystemConfig
{
    /** Functional predict-then-focus pipeline. */
    eyetrack::PipelineConfig pipeline;
    /** Deployment workload fed to the accelerator simulator. */
    accel::PipelineWorkloadConfig workload;
    /** Accelerator hardware configuration (Tab. 1). */
    accel::HwConfig hw;
    /** Accelerator energy model (silicon-calibrated). */
    accel::EnergyModel energy;
    /**
     * Hardware fault model applied by simulateFaultedPerformance();
     * all-zero rates (the default) make the faulted path bitwise
     * identical to simulatePerformance().
     */
    accel::HwFaultConfig hw_faults;
    /**
     * Sensing-processing interface (Sec. 4.2): transmit first-layer
     * feature maps instead of raw measurements, reducing the
     * camera-processor traffic.
     */
    bool optical_interface = true;
    /**
     * CPU execution backend for the planned NN runtime (the
     * functional neural path; the simulated accelerator is
     * unaffected).
     */
    nn::BackendKind nn_backend = nn::BackendKind::Serial;
    /** Threaded backend concurrency; 0 = hardware concurrency. */
    int nn_threads = 0;
};

/**
 * Plan/arena accounting of the deployment graphs on the planned NN
 * runtime (see nn/runtime.h).
 */
struct RuntimeProfile
{
    std::string backend;          ///< Backend name in use.
    nn::PlanStats segmentation;   ///< RITNet at the workload's
                                  ///< seg_input resolution.
    nn::PlanStats gaze;           ///< FBNet-C100 at the ROI extent.
};

/**
 * Accelerator-side health counters accumulated across
 * simulateFaultedPerformance() calls.
 */
struct AccelHealth
{
    long long frames = 0;            ///< Faulted frames simulated.
    long long lane_fault_frames = 0; ///< Frames with stuck lanes.
    long long stall_frames = 0;      ///< Frames with injected stalls.
    long long schedule_timeouts = 0; ///< Watchdog trips (errors).
    long long lane_fault_errors = 0; ///< HwLaneFault failures.
    int retired_lanes = 0;           ///< Last-seen retired lane count.
    accel::EccCounters ecc;          ///< Accumulated ECC outcomes.
    ErrorCode last_error = ErrorCode::Ok; ///< Last typed failure.
};

/**
 * Aggregate serving-health report of the functional pipeline:
 * degraded-mode status, fault/recovery counters, and recovery
 * latency, accumulated since construction or the last reset().
 */
struct HealthReport
{
    /** Raw per-event counters (see eyetrack::HealthStats). */
    eyetrack::HealthStats stats;
    /** True while the pipeline is inside a degraded streak. */
    bool degraded_mode = false;
    /** Fraction of processed frames that were degraded. */
    double degraded_fraction = 0.0;
    /** Fraction of processed frames dropped outright. */
    double drop_fraction = 0.0;
    /** Mean degraded-streak length in frames. */
    double mean_recovery_latency_frames = 0.0;
    /** Accelerator-side fault counters (simulateFaultedPerformance). */
    AccelHealth accel;
    /**
     * Process-wide warnLimited() rate-limiter snapshot: per-key
     * occurrence and suppression counts, key-ordered. A nonzero
     * suppressed count means the logs undercount that warning.
     */
    std::vector<WarnKeyCount> warnings;
};

/**
 * One typed-error frame outcome: the gaze emitted for a successfully
 * served frame, plus the ROI bookkeeping the serving layer batches
 * on. Returned by processFrameChecked(); frames the pipeline could
 * not serve at all surface as a non-OK Status instead of sentinel
 * values.
 */
struct GazeSample
{
    dataset::GazeVec gaze{0, 0, 1}; ///< Finite by construction.
    Rect roi;                       ///< Crop the gaze stage consumed.
    bool roi_refreshed = false;     ///< Segmentation ran this frame.
    eyetrack::FrameHealth health;   ///< Per-frame degradation record.
};

/** One row of the Fig. 14 style cross-platform comparison. */
struct ComparisonRow
{
    std::string name;
    double fps = 0.0;        ///< Compute-only throughput.
    double system_fps = 0.0; ///< End-to-end incl. camera link.
    double fps_per_watt = 0.0;
    double norm_energy_eff = 0.0; ///< Normalized to EyeCoD = 1.0.
};

/**
 * The composed EyeCoD system.
 */
class EyeCoDSystem
{
  public:
    explicit EyeCoDSystem(SystemConfig cfg);

    /** Train the functional gaze stage on synthetic subjects. */
    void train(const dataset::SyntheticEyeRenderer &renderer,
               int train_count);

    /**
     * Run one frame through the functional pipeline. The returned
     * FrameResult carries a per-frame FrameHealth record; the call
     * never aborts on bad input and always emits a finite gaze. It
     * is the pipeline's result slot, valid until the next frame or
     * reset().
     */
    const eyetrack::PredictThenFocusPipeline::FrameResult &
    processFrame(const Image &scene);

    /**
     * Typed-error frame entry for the serving layer. Runs the exact
     * same degradation state machine as processFrame() (health
     * counters, held state, and the ROI chain advance identically),
     * then reports the outcome as a Result instead of sentinel
     * values:
     *
     *  - a mis-sized scene returns ShapeMismatch;
     *  - a dropped frame (sensor fault / no usable image) returns
     *    FrameDropped — the caller decides whether to hold its own
     *    last gaze rather than receiving a silently held value;
     *  - everything else returns the emitted GazeSample (possibly
     *    degraded — inspect health).
     */
    [[nodiscard]] Result<GazeSample> processFrameChecked(const Image &scene);

    /**
     * Reset the functional pipeline's per-sequence state, the
     * accelerator health counters, and the health report's warning
     * view: warnLimited() counters accumulated before the reset are
     * baselined out, so a reset (or snapshot-restored) system's
     * healthReport() matches a fresh run instead of inheriting
     * process-wide warning history.
     */
    void reset();

    /** Aggregate health since construction or the last reset(). */
    HealthReport healthReport() const;

    /**
     * Serialize the serve-time state: the pipeline's per-sequence
     * state graph plus the accelerator health counters. Trained
     * estimators and configuration are construction inputs, not
     * snapshot payload.
     */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /**
     * Restore state saved by saveSnapshot() into a system built from
     * the same configuration. The warning baseline is re-captured at
     * restore time (warn counters are process-global, and the
     * restoring process has its own history).
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
    fields(Self &sys, Ar &ar)
    {
        ar.tag(0x53595331); // "SYS1"
        ar.field(*sys.pipe_);
        auto &h = sys.accel_health_;
        ar.field(h.frames);
        ar.field(h.lane_fault_frames);
        ar.field(h.stall_frames);
        ar.field(h.schedule_timeouts);
        ar.field(h.lane_fault_errors);
        ar.field(h.retired_lanes);
        ar.field(h.ecc.corrected);
        ar.field(h.ecc.detected_uncorrectable);
        ar.field(h.ecc.silent);
        ar.field(h.ecc.overhead_cycles);
        ar.field(snap::wire<int32_t>(h.last_error));
        ar.check(int(h.last_error) >= 0 &&
                     int(h.last_error) <= int(ErrorCode::VersionMismatch),
                 "accel health error code out of range");
        // Warn counters are process-global: re-baseline at restore so
        // the restored system's report starts clean, like a fresh run.
        if constexpr (Ar::kLoading)
            sys.warn_baseline_ = warnCounters();
    }

    /** Simulate the accelerator on the deployment workload. */
    accel::PerfReport simulatePerformance() const;

    /**
     * Simulate the accelerator under the configured hardware fault
     * model (cfg.hw_faults) at @p frame. Outcomes — ECC counters,
     * stuck-lane/stall frames, watchdog timeouts, HwLaneFault
     * failures — accumulate into healthReport().accel. With all-zero
     * fault rates the report is bitwise identical to
     * simulatePerformance().
     */
    Result<accel::PerfReport> simulateFaultedPerformance(long frame);

    /**
     * Plan the deployment graphs on the configured NN backend and
     * report their arena/liveness statistics.
     */
    RuntimeProfile runtimeProfile() const;

    /**
     * Fig. 14: EyeCoD (simulated) against the baseline platforms on
     * the same per-frame workload. EyeCoD is the last row.
     */
    std::vector<ComparisonRow> compareAgainstBaselines() const;

    /** Camera-to-processor bytes per frame for this system. */
    long long frameCommBytes() const;

    /** Camera-to-processor bytes per frame for a lens baseline. */
    long long lensFrameCommBytes() const;

    /** Raw FlatCam measurement bytes (no sensing-processing
     *  interface). */
    long long rawMeasurementBytes() const;

    /** Configuration in use. */
    const SystemConfig &config() const { return cfg_; }

    /** Direct access to the functional pipeline. */
    eyetrack::PredictThenFocusPipeline &pipeline() { return *pipe_; }

    /**
     * Pooling statistics of the pipeline's per-frame buffer arena
     * (heap blocks, peak epoch bytes) for the memory benches.
     */
    const BufferArena::Stats &arenaStats() const
    {
        return pipe_->arena().stats();
    }

  private:
    // Construction-time config; snapshots carry dynamic state only.
    SystemConfig cfg_;
    std::unique_ptr<eyetrack::PredictThenFocusPipeline> pipe_;
    AccelHealth accel_health_;
    /**
     * warnLimited() counters at the last reset()/restore (the
     * counters are process-global; healthReport() reports the delta
     * since, so a reset system reads like a fresh one). Empty at
     * construction: a system built mid-process intentionally surfaces
     * pre-existing warning pressure until its first reset.
     */
    std::vector<WarnKeyCount> warn_baseline_;
};

} // namespace core
} // namespace eyecod

#endif // EYECOD_CORE_EYECOD_H
