#include "eyetrack/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "flatcam/optics.h"

namespace eyecod {
namespace eyetrack {

namespace {

/** True when every component of @p g is finite. */
bool
gazeFinite(const dataset::GazeVec &g)
{
    return std::isfinite(g[0]) && std::isfinite(g[1]) &&
           std::isfinite(g[2]);
}

/**
 * Replace non-finite pixels with mid-gray in place; returns the
 * number of pixels sanitized.
 */
long
sanitizeView(Image &view)
{
    long fixed = 0;
    for (float &v : view.data()) {
        if (!std::isfinite(v)) {
            v = 0.5f;
            ++fixed;
        }
    }
    return fixed;
}

/** True when every pixel of @p img is finite. */
bool
allFinite(const Image &img)
{
    for (float v : img.data())
        if (!std::isfinite(v))
            return false;
    return true;
}

} // namespace

flatcam::MaskConfig
flatcamMaskConfig(const PipelineConfig &cfg)
{
    flatcam::MaskConfig mc;
    mc.scene_rows = cfg.scene_size;
    mc.scene_cols = cfg.scene_size;
    mc.sensor_rows = cfg.scene_size + cfg.flatcam_sensor_margin;
    mc.sensor_cols = cfg.scene_size + cfg.flatcam_sensor_margin;
    mc.seed = cfg.mask_seed;
    // The MLS must span the scene extent.
    mc.mls_order = 3;
    while ((1 << mc.mls_order) - 1 < mc.sensor_rows)
        ++mc.mls_order;
    return mc;
}

PredictThenFocusPipeline::PredictThenFocusPipeline(PipelineConfig cfg)
    : cfg_(cfg), segmenter_(cfg.segmenter),
      roi_(cfg.roi_height, cfg.roi_width), gaze_(cfg.gaze),
      backoff_(cfg.watchdog.initial_backoff)
{
    eyecod_assert(cfg_.roi_refresh > 0, "roi_refresh must be > 0");
    eyecod_assert(cfg_.watchdog.initial_backoff > 0 &&
                  cfg_.watchdog.max_backoff > 0,
                  "watchdog backoff must be positive");
    if (cfg_.faults.anyEnabled())
        injector_ =
            std::make_unique<flatcam::FaultInjector>(cfg_.faults);
    if (cfg_.camera == CameraKind::FlatCam) {
        // Every pipeline of one mask shares its decomposition; only
        // the noise stream and scratch are this pipeline's own.
        const std::shared_ptr<const flatcam::Optics> optics =
            flatcam::sharedOptics(flatcamMaskConfig(cfg_),
                                  cfg_.recon_epsilon);
        sensor_ = std::make_unique<flatcam::FlatCamSensor>(
            std::shared_ptr<const flatcam::SensorOptics>(
                optics, &optics->sensor),
            cfg_.sensor_noise);
        recon_ = std::make_unique<flatcam::FlatCamReconstructor>(
            std::shared_ptr<const flatcam::ReconOptics>(
                optics, &optics->recon));
        meas_.resetShape(sensor_->sensorRows(), sensor_->sensorCols());
    }
    view_.resetShape(cfg_.scene_size, cfg_.scene_size);
    result_.view.resetShape(cfg_.roi_height, cfg_.roi_width);
}

PredictThenFocusPipeline::~PredictThenFocusPipeline() = default;

Image
PredictThenFocusPipeline::acquire(const Image &scene) const
{
    eyecod_assert(scene.height() == cfg_.scene_size &&
                  scene.width() == cfg_.scene_size,
                  "scene %dx%d != configured extent %d",
                  scene.height(), scene.width(), cfg_.scene_size);
    if (cfg_.camera == CameraKind::Lens)
        return scene;
    Image meas;
    Image view;
    Status s = sensor_->captureFrameInto(scene, 0, &meas);
    if (s.isOk())
        s = recon_->reconstructFrameInto(meas, &view);
    eyecod_assert(s.isOk(), "acquire: %s", s.toString().c_str());
    return view;
}

void
PredictThenFocusPipeline::trainGaze(
    const dataset::SyntheticEyeRenderer &renderer, int train_count)
{
    eyecod_assert(renderer.config().image_size == cfg_.scene_size,
                  "renderer extent %d != pipeline extent %d",
                  renderer.config().image_size, cfg_.scene_size);
    std::vector<Image> rois;
    std::vector<dataset::GazeVec> gazes;
    rois.reserve(size_t(train_count));
    gazes.reserve(size_t(train_count));
    uint64_t crop_rng = 0x7ea1;
    Rng jitter_rng(0x177e4);
    for (int i = 0; i < train_count; ++i) {
        const dataset::EyeSample s = renderer.sample(uint64_t(i));
        const Image view = acquire(s.image);
        const dataset::SegMask mask = segmenter_.segment(view);
        Rect r = roi_.predict(mask, cfg_.policy, &crop_rng);
        if (cfg_.train_anchor_jitter > 0) {
            // Staleness augmentation: the deployed ROI anchor lags
            // the pupil by up to two refresh windows.
            const int j = cfg_.train_anchor_jitter;
            r.y += int(jitter_rng.uniformInt(-j, j));
            r.x += int(jitter_rng.uniformInt(-j, j));
        }
        rois.push_back(view.cropped(r));
        gazes.push_back(s.gaze);
    }
    gaze_.train(rois, gazes);
}

Status
PredictThenFocusPipeline::acquireFrameInto(
    const Image &scene, long frame,
    const flatcam::FrameFaults &faults, const Rect &extent, Image *view)
{
    if (scene.height() != cfg_.scene_size ||
        scene.width() != cfg_.scene_size)
        return Status::error(
            ErrorCode::ShapeMismatch,
            "frame %ld: scene %dx%d != configured extent %d", frame,
            scene.height(), scene.width(), cfg_.scene_size);

    // A dropped frame never reaches the sensor: it draws no noise.
    if (faults.dropped())
        return Status::error(ErrorCode::FrameDropped,
                             "frame %ld dropped by sensor", frame);
    if (cfg_.camera == CameraKind::Lens) {
        scene.croppedInto(extent, view);
        if (injector_)
            injector_->applySensorFaults(faults, frame, *view);
    } else {
        // FlatCam: sensor-domain faults corrupt the measurement,
        // before reconstruction. Measurement and view land in member
        // scratch; no per-frame image allocation.
        const Status y = sensor_->captureFrameInto(scene, frame, &meas_);
        if (!y.isOk())
            return y;
        if (injector_)
            injector_->applySensorFaults(faults, frame, meas_);
        const Status x = recon_->reconstructFrameInto(meas_, extent, view);
        if (!x.isOk())
            return x;
    }
    if (injector_)
        injector_->applyViewFaults(faults, frame, *view);
    return Status::ok();
}

void
PredictThenFocusPipeline::refreshRoi(ImageConstView view, bool forced,
                                     FrameHealth &health)
{
    const dataset::SegMask mask = segmenter_.segment(view);
    const MaskStats stats = computeMaskStats(mask);
    const Rect candidate =
        roi_.predict(mask, cfg_.policy, &crop_rng_);
    const RoiGateDecision gate =
        validateRoi(mask, stats, candidate, cfg_.roi_gate);
    health.roi_confidence = gate.confidence;

    if (gate.accepted) {
        if (forced || seg_pending_ || outage_start_ >= 0) {
            // Recovery path: the previous chain is suspect, so the
            // validated fresh ROI becomes active immediately instead
            // of waiting out a refresh window.
            current_roi_ = candidate;
            next_roi_ = candidate;
        } else {
            // Healthy path: the paper's predict-then-focus rotation.
            // The fresh ROI becomes active at the *next* refresh
            // boundary, so gaze always consumes an ROI extracted
            // N..2N frames ago (Sec. 4.3).
            if (next_roi_)
                current_roi_ = next_roi_;
            next_roi_ = candidate;
            if (!current_roi_)
                current_roi_ = next_roi_;
        }
        last_good_roi_ = candidate;
        last_accept_frame_ = frame_index_;
        seg_pending_ = false;
        frames_to_retry_ = -1;
        backoff_ = cfg_.watchdog.initial_backoff;
        return;
    }

    // Rejected: keep the current chain and let the watchdog retry
    // early with capped exponential backoff.
    ++health_stats_.roi_rejections;
    health.roi_rejected = true;
    warnLimited("roi-gate-reject", "frame %ld: ROI rejected (%s)",
                frame_index_, gate.reason.toString().c_str());
    seg_pending_ = false;
    if (cfg_.watchdog.enabled) {
        frames_to_retry_ = backoff_;
        const int cap =
            std::min(cfg_.watchdog.max_backoff, cfg_.roi_refresh);
        backoff_ = std::min(backoff_ * 2, std::max(1, cap));
    }
}

Rect
PredictThenFocusPipeline::centeredCrop() const
{
    Rect r;
    r.height = cfg_.roi_height;
    r.width = cfg_.roi_width;
    r.y = (cfg_.scene_size - cfg_.roi_height) / 2;
    r.x = (cfg_.scene_size - cfg_.roi_width) / 2;
    return r;
}

Rect
PredictThenFocusPipeline::activeRoi(long frame, FrameHealth &health) const
{
    // Fallback chain: fresh chain -> last good -> center.
    const long stale_limit =
        (long)cfg_.stale_limit_windows * cfg_.roi_refresh;
    const bool chain_fresh =
        current_roi_ && last_accept_frame_ >= 0 &&
        frame - last_accept_frame_ <= stale_limit;
    if (chain_fresh) {
        health.roi_source = RoiSource::Predicted;
        return *current_roi_;
    }
    if (last_good_roi_) {
        health.roi_source = RoiSource::LastGood;
        return *last_good_roi_;
    }
    health.roi_source = RoiSource::CenterFallback;
    return centeredCrop();
}

const PredictThenFocusPipeline::FrameResult &
PredictThenFocusPipeline::processFrame(const Image &scene)
{
    eyecod_assert(gaze_.trained(),
                  "processFrame() before trainGaze()");
    // New frame epoch. The arena serves no frame scratch; the epoch
    // opens per frame for the statistics benches read.
    arena_.resetEpoch();
    FrameResult &result = result_;
    result.gaze = dataset::GazeVec{0, 0, 1};
    result.roi_refreshed = false;
    result.roi = Rect();
    result.health = FrameHealth();
    FrameHealth &health = result.health;
    const long frame = frame_index_;

    flatcam::FrameFaults faults;
    if (injector_)
        faults = injector_->plan(frame);
    health.faults_seen = faults.count();
    for (int k = 0; k < flatcam::kNumFaultKinds; ++k)
        health_stats_.fault_counts[size_t(k)] +=
            faults.active[size_t(k)] ? 1 : 0;

    // --- Watchdog countdown ---
    bool forced = false;
    if (frames_to_retry_ > 0)
        --frames_to_retry_;
    if (cfg_.watchdog.enabled && frames_to_retry_ == 0) {
        forced = true;
        frames_to_retry_ = -1;
    }

    // A focus frame segments nothing and has no planned fault, so its
    // ROI is fixed before acquisition and only the ROI is acquired.
    // Every other frame acquires the full scene extent and crops it
    // once the ROI is known.
    const bool segments =
        frame % cfg_.roi_refresh == 0 || forced || seg_pending_;
    const bool focus = !segments && !faults.any();
    Rect extent{0, 0, cfg_.scene_size, cfg_.scene_size};
    if (focus) {
        result.roi = activeRoi(frame, health);
        extent = result.roi;
    }
    Image &view = focus ? result.view : view_;

    // --- Acquisition (typed errors, never aborts) ---
    bool view_ok = false;
    const Status acquired =
        acquireFrameInto(scene, frame, faults, extent, &view);
    if (acquired.isOk()) {
        // A lens focus frame copied only the ROI; a non-finite scene
        // pixel outside it still marks the frame, as on a full frame.
        // A FlatCam reconstruction is finite unless a fault poisons
        // it, and a faulted frame acquires the full extent.
        bool nonfinite = sanitizeView(view) > 0;
        if (focus && cfg_.camera == CameraKind::Lens && !allFinite(scene))
            nonfinite = true;
        if (nonfinite) {
            health.nonfinite_view = true;
            ++health_stats_.nonfinite_views;
            warnLimited("nonfinite-view",
                        "frame %ld: non-finite pixels sanitized",
                        frame);
        }
        view_ok = true;
    } else {
        if (acquired.code() == ErrorCode::ShapeMismatch)
            ++health_stats_.shape_mismatches;
        health.frame_dropped = true;
        ++health_stats_.dropped_frames;
        warnLimited("frame-dropped", "frame %ld unusable: %s", frame,
                    acquired.toString().c_str());
    }

    // --- Segmentation / ROI refresh ---
    if (segments) {
        if (!view_ok) {
            // Nothing to segment; carry the obligation to the next
            // usable frame.
            seg_pending_ = true;
        } else {
            if (forced || seg_pending_) {
                health.watchdog_retry = true;
                ++health_stats_.watchdog_retries;
            }
            refreshRoi(view_, forced, health);
            result.roi_refreshed = true;
        }
    }
    if (!focus)
        result.roi = activeRoi(frame, health);

    // --- Gaze on the ROI crop (always finite) ---
    if (view_ok) {
        if (!focus)
            view_.croppedInto(result.roi, &result.view);
        dataset::GazeVec g = gaze_.predict(result.view);
        if (!gazeFinite(g)) {
            g = has_last_gaze_ ? last_gaze_
                               : dataset::GazeVec{0, 0, 1};
            health.gaze_held = true;
            ++health_stats_.gaze_holds;
            warnLimited("nonfinite-gaze",
                        "frame %ld: non-finite gaze held", frame);
        } else {
            last_gaze_ = g;
            has_last_gaze_ = true;
        }
        result.gaze = g;
        last_view_ = result.view; // capacity-reusing copy-assign
    } else {
        // A held frame repeats the last crop.
        result.gaze =
            has_last_gaze_ ? last_gaze_ : dataset::GazeVec{0, 0, 1};
        health.gaze_held = true;
        ++health_stats_.gaze_holds;
        result.view = last_view_;
    }

    // --- Degraded-mode flag and recovery accounting ---
    health.degraded = health.frame_dropped || health.roi_rejected ||
                      health.nonfinite_view || health.gaze_held ||
                      health.watchdog_retry ||
                      health.faults_seen > 0 ||
                      health.roi_source != RoiSource::Predicted;
    if (health.degraded) {
        if (outage_start_ < 0)
            outage_start_ = frame;
        ++health_stats_.degraded_frames;
    } else if (outage_start_ >= 0) {
        const long latency = frame - outage_start_;
        health.recovery_latency = latency;
        ++health_stats_.recoveries;
        health_stats_.sum_recovery_latency += latency;
        outage_start_ = -1;
    }

    ++health_stats_.frames;
    ++frame_index_;
    return result;
}

void
PredictThenFocusPipeline::reset()
{
    frame_index_ = 0;
    current_roi_.reset();
    next_roi_.reset();
    crop_rng_ = 0x5eed;
    // Degradation FSM.
    last_good_roi_.reset();
    last_accept_frame_ = -1;
    last_gaze_ = dataset::GazeVec{0, 0, 1};
    has_last_gaze_ = false;
    last_view_ = Image();
    seg_pending_ = false;
    frames_to_retry_ = -1;
    backoff_ = cfg_.watchdog.initial_backoff;
    outage_start_ = -1;
    health_stats_ = HealthStats();
    // Replay the identical sensor noise stream on the next sequence.
    if (sensor_)
        sensor_->resetNoise();
}

long long
PredictThenFocusPipeline::gazeMacsPerFrame() const
{
    return gaze_.macsPerFrame();
}

double
PredictThenFocusPipeline::segmentationRatePerFrame() const
{
    return 1.0 / double(cfg_.roi_refresh);
}

long long
PredictThenFocusPipeline::reconMacsPerFrame() const
{
    return recon_ ? recon_->macsPerFrame() : 0;
}

} // namespace eyetrack
} // namespace eyecod
