/**
 * @file
 * The predict-then-focus processing pipeline (Fig. 3): image
 * acquisition (lens pass-through or FlatCam capture + Tikhonov
 * reconstruction), periodic ROI prediction via segmentation, and
 * per-frame gaze estimation on the (possibly stale) ROI.
 *
 * As in the paper, ROI prediction runs once every `roi_refresh`
 * frames and the gaze stage consumes the ROI computed during the
 * *previous* refresh window, i.e. an ROI extracted N..2N frames ago.
 *
 * Focus goes one stage earlier still: a frame that does not segment
 * and has no planned fault knows its ROI before acquisition, so it
 * acquires only the ROI (a FlatCam frame reconstructs just the ROI's
 * pixels). Every frame's view is the ROI crop gaze reads.
 */

#ifndef EYECOD_EYETRACK_PIPELINE_H
#define EYECOD_EYETRACK_PIPELINE_H

#include <array>
#include <memory>
#include <optional>

#include "common/buffer_arena.h"
#include "common/image_view.h"
#include "common/snapshot.h"
#include "common/status.h"
#include "dataset/sequence.h"
#include "dataset/synthetic_eye.h"
#include "eyetrack/gaze_estimator.h"
#include "eyetrack/roi.h"
#include "eyetrack/segmentation.h"
#include "flatcam/fault_injection.h"
#include "flatcam/imaging.h"
#include "flatcam/reconstruction.h"

namespace eyecod {
namespace eyetrack {

/** Camera front-end flavours. */
enum class CameraKind { Lens, FlatCam };

/**
 * Stale-ROI watchdog: when a fresh segmentation is rejected by the
 * sanity gate (or missed because the frame was dropped), the pipeline
 * does not wait out the remainder of the roi_refresh window; it
 * re-runs segmentation after a capped exponentially growing backoff.
 */
struct WatchdogConfig
{
    bool enabled = true;
    int initial_backoff = 1; ///< Frames until the first retry.
    int max_backoff = 16;    ///< Backoff cap (also capped at
                             ///  roi_refresh).
};

/** Where the crop consumed by the gaze stage came from. */
enum class RoiSource {
    Predicted,      ///< The normal predict-then-focus chain.
    LastGood,       ///< Chain expired; holding the last accepted ROI.
    CenterFallback, ///< No accepted ROI yet; centered crop.
};

/**
 * Per-frame health record: what degraded, what was injected, and how
 * the pipeline compensated.
 */
struct FrameHealth
{
    bool degraded = false;      ///< Any abnormal condition this frame.
    bool frame_dropped = false; ///< No usable image this frame.
    RoiSource roi_source = RoiSource::Predicted;
    int faults_seen = 0;        ///< Injected faults planned this frame.
    bool nonfinite_view = false; ///< NaN/Inf pixels sanitized.
    bool roi_rejected = false;  ///< Fresh ROI failed the sanity gate.
    bool watchdog_retry = false; ///< Segmentation forced early.
    bool gaze_held = false;     ///< Emitted gaze is a held value.
    double roi_confidence = 1.0; ///< Gate confidence of the last
                                 ///  fresh ROI attempt (this frame).
    /**
     * On the first healthy frame after a degraded streak: the streak
     * length in frames; -1 otherwise.
     */
    long recovery_latency = -1;
};

/** Aggregate health counters over a sequence. */
struct HealthStats
{
    long frames = 0;
    long degraded_frames = 0;
    long dropped_frames = 0;
    long nonfinite_views = 0;   ///< Views with NaN/Inf sanitized.
    long shape_mismatches = 0;  ///< Mis-sized input frames.
    long roi_rejections = 0;
    long watchdog_retries = 0;
    long gaze_holds = 0;
    long recoveries = 0;        ///< Degraded->healthy transitions.
    long sum_recovery_latency = 0;
    /** Injected fault events by FaultKind index. */
    std::array<long, flatcam::kNumFaultKinds> fault_counts{};

    /** Mean degraded-streak length in frames (0 when none). */
    double
    meanRecoveryLatency() const
    {
        return recoveries > 0
                   ? double(sum_recovery_latency) / double(recoveries)
                   : 0.0;
    }
};

/** End-to-end pipeline configuration. */
struct PipelineConfig
{
    CameraKind camera = CameraKind::FlatCam;
    int scene_size = 128;  ///< Scene / reconstruction extent.
    int roi_height = 48;   ///< ROI crop extent at scene scale
    int roi_width = 80;    ///  (96x160 at the paper's 256 scale).
    int roi_refresh = 50;  ///< Frames between ROI predictions.
    CropPolicy policy = CropPolicy::Roi;
    SegmenterConfig segmenter;
    GazeEstimatorConfig gaze;
    flatcam::SensorNoise sensor_noise;
    double recon_epsilon = 2e-3; ///< Tikhonov weight.
    int flatcam_sensor_margin = 32; ///< Sensor extent - scene extent.
    uint64_t mask_seed = 0x71a7ca;
    /**
     * Training-time ROI anchor jitter in pixels: augments the gaze
     * training crops with random offsets so the estimator tolerates
     * the N..2N-frame ROI staleness of the deployed pipeline.
     */
    int train_anchor_jitter = 6;
    /** Sensor fault injection; all rates default to 0 (disabled). */
    flatcam::FaultConfig faults;
    /** ROI sanity gating (graceful degradation entry point). */
    RoiGateConfig roi_gate;
    /** Early re-segmentation policy after gate rejections. */
    WatchdogConfig watchdog;
    /**
     * Frames after the last accepted segmentation before the
     * predicted ROI chain is considered expired and the pipeline
     * falls back to the last-known-good ROI, in units of
     * roi_refresh. 2 matches the design's N..2N staleness bound.
     */
    int stale_limit_windows = 2;
};

/**
 * The FlatCam mask a pipeline of @p cfg images through: a sensor
 * flatcam_sensor_margin wider than the scene, the shortest MLS that
 * spans it, and mask_seed. The key of the pipeline's shared optics
 * (flatcam::sharedOptics, with recon_epsilon).
 */
flatcam::MaskConfig flatcamMaskConfig(const PipelineConfig &cfg);

/**
 * The composed predict-then-focus pipeline.
 */
class PredictThenFocusPipeline
{
  public:
    explicit PredictThenFocusPipeline(PipelineConfig cfg);
    ~PredictThenFocusPipeline();

    /**
     * Acquire a scene through the configured camera, with no fault
     * schedule: identity for a lens camera, FlatCam capture +
     * reconstruction otherwise. The gaze-training path.
     */
    Image acquire(const Image &scene) const;

    /**
     * Fit the gaze stage: renders @p train_count samples, pushes
     * them through acquisition + segmentation + the configured crop
     * policy, and trains the ridge regressor on the crops.
     */
    void trainGaze(const dataset::SyntheticEyeRenderer &renderer,
                   int train_count);

    /** Result of one frame. */
    struct FrameResult
    {
        dataset::GazeVec gaze{0, 0, 1};
        bool roi_refreshed = false; ///< Segmentation ran this frame.
        Rect roi;                   ///< Crop used for gaze.
        Image view;                 ///< The ROI crop gaze read,
                                    ///  edge-clamped (the last good
                                    ///  crop on a dropped frame).
        FrameHealth health;         ///< Degradation record.
    };

    /**
     * Process one frame; maintains the ROI refresh state and the
     * degradation state machine. Never aborts on abnormal input: a
     * dropped/corrupted frame degrades the result (held gaze,
     * fallback ROI) and is recorded in the returned FrameHealth. The
     * emitted gaze vector is always finite.
     *
     * The result lives in a member slot, valid until the next
     * processFrame() or reset() call; copy it to keep it. The
     * per-frame scratch — full view, FlatCam measurement, the ROI
     * crop — lives in capacity-reusing member images, so
     * steady-state frames perform zero heap allocations.
     */
    const FrameResult &processFrame(const Image &scene);

    /**
     * Reset the full per-sequence state: ROI refresh chain, crop RNG,
     * sensor noise stream, the degradation state machine (fallback
     * ROIs, held gaze, watchdog backoff), and the health counters.
     */
    void reset();

    /**
     * Serialize the full per-sequence state — exactly the set
     * reset() clears: ROI refresh phase, crop RNG, degradation FSM
     * (fallback ROIs, held gaze, watchdog backoff, outage streak),
     * the last ROI crop, health counters, and the sensor noise
     * stream position. The trained gaze estimator, mask, and
     * configuration are NOT captured: they are construction inputs a
     * restoring process already holds.
     */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /**
     * Restore the per-sequence state saved by saveSnapshot() into a
     * pipeline built from the same configuration. On a typed failure
     * the pipeline state is unspecified; call reset() before reuse.
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
    fields(Self &p, Ar &ar)
    {
        ar.tag(0x50495032); // "PIP2"
        // ROI refresh chain.
        ar.field(p.frame_index_);
        ar.field(p.current_roi_);
        ar.field(p.next_roi_);
        ar.field(p.crop_rng_);
        // Degradation FSM.
        ar.field(p.last_good_roi_);
        ar.field(p.last_accept_frame_);
        ar.field(p.last_gaze_);
        ar.field(p.has_last_gaze_);
        ar.field(p.last_view_);
        ar.check((p.last_view_.height() == 0 &&
                  p.last_view_.width() == 0) ||
                     (p.last_view_.height() == p.cfg_.roi_height &&
                      p.last_view_.width() == p.cfg_.roi_width),
                 "last view is neither empty nor an ROI crop");
        ar.field(p.seg_pending_);
        ar.field(p.frames_to_retry_);
        ar.field(p.backoff_);
        ar.field(p.outage_start_);
        // Health counters.
        auto &h = p.health_stats_;
        ar.field(h.frames);
        ar.field(h.degraded_frames);
        ar.field(h.dropped_frames);
        ar.field(h.nonfinite_views);
        ar.field(h.shape_mismatches);
        ar.field(h.roi_rejections);
        ar.field(h.watchdog_retries);
        ar.field(h.gaze_holds);
        ar.field(h.recoveries);
        ar.field(h.sum_recovery_latency);
        ar.field(h.fault_counts);
        // Sensor noise stream position (FlatCam cameras only); the
        // camera kind must match this pipeline's configuration.
        ar.expect(p.sensor_ != nullptr);
        if (p.sensor_)
            ar.field(*p.sensor_);
    }

    /** Aggregate health counters since construction or reset(). */
    const HealthStats &healthStats() const { return health_stats_; }

    /** True while inside a degraded streak (not yet recovered). */
    bool inDegradedMode() const { return outage_start_ >= 0; }

    /** Mean gaze MACs per frame (stand-in estimator). */
    long long gazeMacsPerFrame() const;

    /** Amortized segmentation-stage invocations per frame (1/N). */
    double segmentationRatePerFrame() const;

    /** FlatCam reconstruction MACs per frame (0 for lens). */
    long long reconMacsPerFrame() const;

    /** Configuration in use. */
    const PipelineConfig &config() const { return cfg_; }

    /**
     * The per-pipeline frame arena (epoch-reset at the top of every
     * processed frame). No frame scratch comes from it; benches still
     * read its statistics.
     */
    const BufferArena &arena() const { return arena_; }

    /** Direct access to the stages (for experiments). */
    const ClassicalSegmenter &segmenter() const { return segmenter_; }
    const RoiPredictor &roiPredictor() const { return roi_; }
    RidgeGazeEstimator &gazeEstimator() { return gaze_; }

  private:
    /**
     * Acquire the @p extent of one serving-path frame into @p view
     * (capacity-reusing, edge-clamped) with typed errors, applying
     * this frame's planned @p faults: a drop before any capture,
     * sensor-domain faults to the lens image or the FlatCam
     * measurement, NaN poison to the view. On error @p view is
     * unspecified and must not be consumed.
     */
    Status acquireFrameInto(const Image &scene, long frame,
                            const flatcam::FrameFaults &faults,
                            const Rect &extent, Image *view);

    /** Run + gate segmentation; updates the ROI chain and watchdog. */
    void refreshRoi(ImageConstView view, bool forced,
                    FrameHealth &health);

    /** Centered roi_height x roi_width crop of the scene extent. */
    Rect centeredCrop() const;

    /**
     * The ROI gaze reads on @p frame, from the fallback chain: the
     * fresh predicted chain, else the last good ROI, else the
     * centered crop; records which in @p health.
     */
    Rect activeRoi(long frame, FrameHealth &health) const;

    // Construction inputs, not snapshot state: the config, the
    // stateless segmenter, the ROI stage (its state travels in the
    // ROI fields below), the fitted gaze model, the reconstructor
    // (rebuilt from calibration) and the fault schedule (config,
    // replayed deterministically). Only the sensor's noise stream is
    // snapshotted.
    PipelineConfig cfg_;
    ClassicalSegmenter segmenter_;
    RoiPredictor roi_;
    RidgeGazeEstimator gaze_;
    std::unique_ptr<flatcam::FlatCamSensor> sensor_;
    std::unique_ptr<flatcam::FlatCamReconstructor> recon_;
    std::unique_ptr<flatcam::FaultInjector> injector_;

    // Per-sequence ROI refresh state.
    long frame_index_ = 0;
    std::optional<Rect> current_roi_;
    std::optional<Rect> next_roi_;
    uint64_t crop_rng_ = 0x5eed;

    // Degradation state machine.
    std::optional<Rect> last_good_roi_; ///< Last gate-accepted ROI.
    long last_accept_frame_ = -1;  ///< Frame of that acceptance.
    dataset::GazeVec last_gaze_{0, 0, 1};
    bool has_last_gaze_ = false;
    Image last_view_;              ///< ROI crop of the last good frame.
    bool seg_pending_ = false;     ///< Seg was due on a dropped frame.
    long frames_to_retry_ = -1;    ///< Watchdog countdown (-1 idle).
    int backoff_ = 1;              ///< Current watchdog backoff.
    long outage_start_ = -1;       ///< First frame of the current
                                   ///  degraded streak (-1 healthy).
    HealthStats health_stats_;

    // Frame spine: per-frame scratch. The member images are sized by
    // the constructor (in the building thread's malloc arena, as the
    // FlatCam scratch is) and reuse capacity, so steady-state frames
    // never touch the heap. None of it is snapshotted: each buffer is
    // repainted before its first use in a frame, and the result slot
    // is overwritten by the next frame. The arena is epoch-reset at
    // the top of every frame and serves nothing.
    BufferArena arena_;
    Image view_;       ///< Full-extent view of a frame that is not
                       ///  a focus frame.
    Image meas_;       ///< FlatCam measurement scratch.
    FrameResult result_; ///< processFrame() result slot; its view
                         ///  takes a focus frame's acquisition.
};

} // namespace eyetrack
} // namespace eyecod

#endif // EYECOD_EYETRACK_PIPELINE_H
