#include "core/eyecod.h"

#include "common/logging.h"
#include "flatcam/optical_interface.h"
#include "models/model_zoo.h"

namespace eyecod {
namespace core {

EyeCoDSystem::EyeCoDSystem(SystemConfig cfg)
    : cfg_(std::move(cfg)),
      pipe_(std::make_unique<eyetrack::PredictThenFocusPipeline>(
          cfg_.pipeline))
{
}

void
EyeCoDSystem::train(const dataset::SyntheticEyeRenderer &renderer,
                    int train_count)
{
    pipe_->trainGaze(renderer, train_count);
}

const eyetrack::PredictThenFocusPipeline::FrameResult &
EyeCoDSystem::processFrame(const Image &scene)
{
    return pipe_->processFrame(scene);
}

Result<GazeSample>
EyeCoDSystem::processFrameChecked(const Image &scene)
{
    const bool mis_sized =
        scene.height() != cfg_.pipeline.scene_size ||
        scene.width() != cfg_.pipeline.scene_size;
    // Run the frame through the pipeline unconditionally so the
    // degradation FSM and health counters advance exactly as on the
    // unchecked path; only the reporting differs. The result is read
    // in place: its ROI crop is never copied on the serving hot
    // path.
    const auto &r = pipe_->processFrame(scene);
    if (mis_sized)
        return Status::error(
            ErrorCode::ShapeMismatch,
            "scene %dx%d does not match configured %dx%d",
            scene.height(), scene.width(), cfg_.pipeline.scene_size,
            cfg_.pipeline.scene_size);
    if (r.health.frame_dropped)
        return Status::error(ErrorCode::FrameDropped,
                             "no usable frame (faults seen: %d)",
                             r.health.faults_seen);
    GazeSample sample;
    sample.gaze = r.gaze;
    sample.roi = r.roi;
    sample.roi_refreshed = r.roi_refreshed;
    sample.health = r.health;
    return sample;
}

void
EyeCoDSystem::reset()
{
    pipe_->reset();
    accel_health_ = AccelHealth{};
    // Baseline out warning history accumulated before this reset: the
    // warnLimited() counters are process-global, and a reset system's
    // health report must read like a fresh run's.
    warn_baseline_ = warnCounters();
}

namespace {

/**
 * Per-key delta of the process-global warn counters against a
 * baseline; keys whose counts did not move since the baseline are
 * dropped entirely.
 */
std::vector<WarnKeyCount>
warnCountersSince(const std::vector<WarnKeyCount> &baseline)
{
    std::vector<WarnKeyCount> now = warnCounters();
    std::vector<WarnKeyCount> delta;
    for (const WarnKeyCount &cur : now) {
        WarnKeyCount d = cur;
        for (const WarnKeyCount &base : baseline) {
            if (base.key == cur.key) {
                d.occurrences -= base.occurrences;
                d.suppressed -= base.suppressed;
                break;
            }
        }
        if (d.occurrences > 0 || d.suppressed > 0)
            delta.push_back(d);
    }
    return delta;
}

} // namespace

HealthReport
EyeCoDSystem::healthReport() const
{
    HealthReport report;
    report.stats = pipe_->healthStats();
    report.degraded_mode = pipe_->inDegradedMode();
    if (report.stats.frames > 0) {
        const double n = double(report.stats.frames);
        report.degraded_fraction =
            double(report.stats.degraded_frames) / n;
        report.drop_fraction =
            double(report.stats.dropped_frames) / n;
    }
    report.mean_recovery_latency_frames =
        report.stats.meanRecoveryLatency();
    report.accel = accel_health_;
    report.warnings = warnCountersSince(warn_baseline_);
    return report;
}

accel::PerfReport
EyeCoDSystem::simulatePerformance() const
{
    const auto workloads = accel::buildPipelineWorkload(cfg_.workload);
    return accel::simulate(workloads, cfg_.hw, cfg_.energy);
}

Result<accel::PerfReport>
EyeCoDSystem::simulateFaultedPerformance(long frame)
{
    const auto workloads = accel::buildPipelineWorkload(cfg_.workload);
    const accel::HwFaultInjector injector(cfg_.hw_faults, cfg_.hw);
    Result<accel::PerfReport> r = accel::simulateFaulted(
        workloads, cfg_.hw, cfg_.energy, injector, frame);

    ++accel_health_.frames;
    accel_health_.retired_lanes = injector.retiredLaneCount();
    if (r.ok()) {
        const accel::PerfReport &p = r.value();
        if (p.stuck_lane_events > 0)
            ++accel_health_.lane_fault_frames;
        if (p.injected_stall_cycles > 0)
            ++accel_health_.stall_frames;
        accel_health_.ecc += p.ecc;
    } else {
        accel_health_.last_error = r.status().code();
        if (r.status().code() == ErrorCode::ScheduleTimeout)
            ++accel_health_.schedule_timeouts;
        else if (r.status().code() == ErrorCode::HwLaneFault)
            ++accel_health_.lane_fault_errors;
    }
    return r;
}

RuntimeProfile
EyeCoDSystem::runtimeProfile() const
{
    RuntimeProfile profile;
    profile.backend =
        nn::makeBackend(cfg_.nn_backend, cfg_.nn_threads)->name();

    const nn::Graph seg = models::buildRitNet(
        cfg_.workload.seg_input, cfg_.workload.seg_input,
        cfg_.workload.quant_bits);
    profile.segmentation = nn::ExecutionPlan(seg).stats();

    const nn::Graph gaze = models::buildFBNetC100(
        cfg_.workload.roi_height, cfg_.workload.roi_width,
        cfg_.workload.quant_bits);
    profile.gaze = nn::ExecutionPlan(gaze).stats();
    return profile;
}

long long
EyeCoDSystem::frameCommBytes() const
{
    const int sensor = cfg_.workload.sensor;
    if (!cfg_.optical_interface)
        return (long long)sensor * sensor; // raw 8-bit measurement
    // Sensing-processing interface: the mask computes the first
    // layer optically; the sensor transmits downsampled feature maps.
    flatcam::OpticalFirstLayer optical;
    return optical.featureBytes(sensor, sensor);
}

long long
EyeCoDSystem::lensFrameCommBytes() const
{
    const int scene = cfg_.workload.scene;
    return (long long)scene * scene;
}

long long
EyeCoDSystem::rawMeasurementBytes() const
{
    const int sensor = cfg_.workload.sensor;
    return (long long)sensor * sensor;
}

std::vector<ComparisonRow>
EyeCoDSystem::compareAgainstBaselines() const
{
    const auto workloads = accel::buildPipelineWorkload(cfg_.workload);
    double macs_per_frame = 0.0;
    for (const auto &m : workloads)
        macs_per_frame += m.macsPerFrame();

    std::vector<ComparisonRow> rows;
    const long long lens_bytes = lensFrameCommBytes();
    for (const auto &spec : platforms::baselinePlatforms()) {
        const auto p = platforms::evaluatePlatform(
            spec, macs_per_frame, lens_bytes);
        ComparisonRow row;
        row.name = p.name;
        row.fps = p.fps;
        row.system_fps = p.system_fps;
        row.fps_per_watt = p.fps_per_watt;
        rows.push_back(row);
    }

    // EyeCoD itself: simulated accelerator + attached-sensor link.
    const accel::PerfReport perf = simulatePerformance();
    const platforms::CommLink link = platforms::eyecodAttachedLink();
    ComparisonRow self;
    self.name = "EyeCoD";
    self.fps = perf.fps;
    self.system_fps =
        1.0 / (1.0 / perf.fps + link.latency(frameCommBytes()));
    self.fps_per_watt = perf.fps_per_watt;
    rows.push_back(self);

    // Normalize energy efficiency to EyeCoD = 1.0 (Fig. 14 y-axis).
    const double base = self.fps_per_watt;
    for (ComparisonRow &row : rows)
        row.norm_energy_eff = base > 0.0
            ? row.fps_per_watt / base : 0.0;
    return rows;
}

} // namespace core
} // namespace eyecod
