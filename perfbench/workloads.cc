#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "common/alloc_counter.h"
#include "common/stats.h"
#include "dataset/sequence.h"
#include "flatcam/imaging.h"
#include "flatcam/reconstruction.h"

namespace perfbench {

using namespace eyecod;

namespace {

/** The synthetic dataset every workload renders from. */
constexpr uint64_t kRendererSeed = 2019;
/**
 * The users — eye geometry and eye motion — form a fixed panel, like
 * a fixed test set: with a fresh set of 16 users per seed, one badly
 * tracked user moves gaze error by more than any usable bound. The
 * seed draws everything else: arrival jitter and sensor noise.
 */
constexpr uint64_t kPanelSeed = 0x5e111;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/**
 * A lid less than half open hides the pupil: such a frame is a blink
 * frame, excluded from gaze error and counted. Open eyes render with
 * eyelid_open >= 0.72, so no open-eye frame is excluded.
 */
constexpr double kBlinkLid = 0.5;
/** The traced run's tracker pass: users and frames per user. */
constexpr int kTracePassUsers = 2;
constexpr int kTracePassFrames = 120;

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** FNV-1a over raw bytes: a compact signature of exact outputs. */
struct Fnv
{
    uint64_t h = 1469598103934665603ULL;

    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ULL;
        }
    }
    template <class T>
    void
    add(const T &v)
    {
        bytes(&v, sizeof(v));
    }
    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
        return buf;
    }
};

bool
finite(const dataset::GazeVec &g)
{
    return std::isfinite(g[0]) && std::isfinite(g[1]) &&
           std::isfinite(g[2]);
}

double
groundTruthError(const dataset::GazeVec &gaze, const dataset::EyeParams &p)
{
    return dataset::angularErrorDeg(
        gaze, dataset::anglesToVector(p.yaw_deg, p.pitch_deg));
}

std::vector<WorkloadSpec>
makeSpecs()
{
    using eyetrack::CameraKind;
    std::vector<WorkloadSpec> specs;

    WorkloadSpec fleet;
    fleet.sessions = 16;
    fleet.chips = 4;
    fleet.scheduler_threads = 4;
    fleet.fleet_frames = 120;

    // FlatCam multiplex + reconstruct are ~98% of every served frame
    // and nothing else happens in the fleet: the workload for the
    // FlatCam GEMM and stale-ROI accuracy.
    WorkloadSpec flatcam = fleet;
    flatcam.name = "fleet_flatcam";
    flatcam.camera = CameraKind::FlatCam;
    flatcam.roi_refresh = 50;
    flatcam.blink_rate = 1.0;
    specs.push_back(flatcam);

    // No FlatCam work at all: FlatCam changes must not move it, while
    // rendering, the scheduler and its tick barrier dominate.
    WorkloadSpec lens = fleet;
    lens.name = "fleet_lens";
    lens.camera = CameraKind::Lens;
    lens.roi_refresh = 25;
    specs.push_back(lens);

    // Failover, degraded-resolution serving and checkpointing next to
    // FlatCam serving under 4-thread contention; the only workload
    // that runs the snapshot codec.
    WorkloadSpec chaos = flatcam;
    chaos.name = "fleet_chaos_flatcam";
    chaos.chaos = true;
    // Every session's first frame arrives within the first tick, and
    // the scheduler fills the lowest-index chip first: chip 0 starts
    // an 8-frame batch at 1 ms, so its failure at 3 ms is mid-batch
    // whatever the seed. BIST retires lanes on chip 2 at power-on.
    // With both, raw pressure sits in tier 2's band until the rejoin.
    chaos.plan.fail_chip = 0;
    chaos.plan.fail_us = 3000;
    chaos.plan.rejoin_us = 250000;
    chaos.plan.retire_chip = 2;
    chaos.plan.retire_us = 1000;
    chaos.plan.retire_lanes = 32;
    chaos.plan.checkpoint_every_us = 10000; // tick_us multiple
    chaos.plan.kill_us = 203000; // mid-outage, off the checkpoint grid
    specs.push_back(chaos);
    return specs;
}

/** Benchmark-owned stage instances the traced tracker replays. */
struct StageReplay
{
    std::unique_ptr<flatcam::FlatCamSensor> sensor;
    std::unique_ptr<flatcam::FlatCamReconstructor> recon;
    long long flatcam_macs = 0; ///< Multiplex + reconstruct, per frame.
    Image meas;
    Image view;
    Image crop;
    uint64_t roi_rng = 0x5eed;
    double sink = 0.0;
};

/** Sensor and reconstructor built from the pipeline's mask config. */
StageReplay
makeStageReplay(const eyetrack::PipelineConfig &p)
{
    StageReplay st;
    if (p.camera != eyetrack::CameraKind::FlatCam)
        return st;
    flatcam::MaskConfig mc;
    mc.scene_rows = p.scene_size;
    mc.scene_cols = p.scene_size;
    mc.sensor_rows = p.scene_size + p.flatcam_sensor_margin;
    mc.sensor_cols = p.scene_size + p.flatcam_sensor_margin;
    mc.seed = p.mask_seed;
    mc.mls_order = 3;
    while ((1 << mc.mls_order) - 1 < mc.sensor_rows)
        ++mc.mls_order;
    st.sensor = std::make_unique<flatcam::FlatCamSensor>(
        flatcam::makeSeparableMask(mc), p.sensor_noise);
    st.recon = std::make_unique<flatcam::FlatCamReconstructor>(
        st.sensor->mask(), p.recon_epsilon);
    // y = PhiL x PhiR^T: (s x n)(n x n), then (s x n)(n x s).
    const long long s = mc.sensor_rows;
    const long long n = mc.scene_rows;
    st.flatcam_macs = s * n * n + s * n * s + st.recon->macsPerFrame();
    return st;
}

/** Per-layer numbers of one traced tracker pass. */
struct TrackerPass
{
    long frames = 0;
    long refreshes = 0;
    long degraded = 0;
    long holds = 0;
    long rejections = 0;
    double process_s = 0.0; ///< Summed processFrameChecked time.
    double flatcam_s = 0.0; ///< Summed replayed FlatCam time.
    std::vector<double> render_ms, mux_ms, recon_ms, seg_ms, roi_us,
        gaze_us, self_ms;
};

/**
 * Replay one frame through the stage entry points, under the
 * processFrameChecked span @p parent: the same scene through the
 * benchmark's sensor and reconstructor, then the pipeline's own
 * segmenter, ROI predictor and gaze estimator on the ROI it used.
 */
void
replayStages(StageReplay &st, eyetrack::PredictThenFocusPipeline &pipe,
             const Image &scene, long frame, const core::GazeSample *g,
             int64_t parent, int64_t frame_id, double call_us,
             SpanRecorder &spans, TrackerPass &pass, Checks &checks)
{
    double children_us = 0.0;
    const Image *view = &scene;
    if (st.sensor) {
        const auto t0 = Clock::now();
        const Status y = st.sensor->captureFrameInto(
            ImageConstView::of(scene), frame, &st.meas);
        const auto t1 = Clock::now();
        const Status x = st.recon->reconstructFrameInto(
            ImageConstView::of(st.meas), &st.view);
        const auto t2 = Clock::now();
        spans.record("FlatCamSensor::captureFrameInto", t0, t1, parent,
                     frame_id);
        spans.record("FlatCamReconstructor::reconstructFrameInto", t1, t2,
                     parent, frame_id);
        if (!y.isOk() || !x.isOk())
            checks.require(false, "stage replay: FlatCam capture failed");
        pass.mux_ms.push_back(microsBetween(t0, t1) * 1e-3);
        pass.recon_ms.push_back(microsBetween(t1, t2) * 1e-3);
        pass.flatcam_s += microsBetween(t0, t2) * 1e-6;
        children_us += microsBetween(t0, t2);
        view = &st.view;
    }
    if (g != nullptr) {
        const ImageConstView v = ImageConstView::of(*view);
        if (g->roi_refreshed) {
            const auto t0 = Clock::now();
            const dataset::SegMask mask = pipe.segmenter().segment(v);
            const auto t1 = Clock::now();
            const Rect r = pipe.roiPredictor().predict(
                mask, pipe.config().policy, &st.roi_rng);
            const auto t2 = Clock::now();
            spans.record("ClassicalSegmenter::segment", t0, t1, parent,
                         frame_id);
            spans.record("RoiPredictor::predict", t1, t2, parent,
                         frame_id);
            pass.seg_ms.push_back(microsBetween(t0, t1) * 1e-3);
            pass.roi_us.push_back(microsBetween(t1, t2));
            children_us += microsBetween(t0, t2);
            st.sink += r.x;
        }
        const auto t0 = Clock::now();
        dataset::GazeVec gaze;
        if (v.contains(g->roi)) {
            gaze = pipe.gazeEstimator().predict(v.subview(g->roi).value());
        } else {
            view->croppedInto(g->roi, &st.crop);
            gaze = pipe.gazeEstimator().predict(ImageConstView::of(st.crop));
        }
        const auto t1 = Clock::now();
        spans.record("RidgeGazeEstimator::predict", t0, t1, parent,
                     frame_id);
        pass.gaze_us.push_back(microsBetween(t0, t1));
        children_us += microsBetween(t0, t1);
        st.sink += gaze[0];
    }
    pass.self_ms.push_back((call_us - children_us) * 1e-3);
}

/**
 * One traced tracker pass over every subject, closed loop on one
 * thread: each frame is rendered, timed through processFrameChecked
 * (the parent span), then replayed through the stages.
 */
TrackerPass
runTrackerPass(Context &ctx, StageReplay &stages, SpanRecorder &spans,
               Checks &checks)
{
    TrackerPass pass;
    core::EyeCoDSystem &sys = *ctx.tracker;
    eyetrack::PredictThenFocusPipeline &pipe = sys.pipeline();
    dataset::EyeSample sample;
    int64_t frame_id = 0;
    for (size_t s = 0; s < ctx.subjects.size(); ++s) {
        sys.reset();
        if (stages.sensor)
            stages.sensor->resetNoise();
        const std::vector<dataset::EyeParams> &traj = ctx.subjects[s];
        for (size_t f = 0; f < traj.size(); ++f, ++frame_id) {
            const auto r0 = Clock::now();
            ctx.renderer->renderInto(
                traj[f], ctx.noise_seed ^ (uint64_t(f) * 0x9e3779b9ULL + s),
                &sample);
            const auto a = Clock::now();
            const Result<core::GazeSample> r =
                sys.processFrameChecked(sample.image);
            const auto b = Clock::now();
            spans.record("SyntheticEyeRenderer::renderInto", r0, a, -1,
                         frame_id);
            const int64_t parent = spans.record(
                "EyeCoDSystem::processFrameChecked", a, b, -1, frame_id);
            pass.render_ms.push_back(microsBetween(r0, a) * 1e-3);
            pass.process_s += microsBetween(a, b) * 1e-6;
            ++pass.frames;
            const core::GazeSample *g = r.ok() ? &r.value() : nullptr;
            if (g != nullptr && !finite(g->gaze))
                checks.require(false, "tracker emitted a non-finite gaze");
            if (g != nullptr && g->roi_refreshed)
                ++pass.refreshes;
            replayStages(stages, pipe, sample.image, long(f), g, parent,
                         frame_id, microsBetween(a, b), spans, pass, checks);
        }
        const eyetrack::HealthStats &hs = pipe.healthStats();
        pass.degraded += hs.degraded_frames;
        pass.holds += hs.gaze_holds;
        pass.rejections += hs.roi_rejections;
    }
    return pass;
}

/** Median of @p v; 0 when the layer never ran. */
double
p50OrZero(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : median(v);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Compare @p signature with the one an earlier run of the same
 * workload and seed left in @p dir; the first run records it.
 */
void
checkAcrossRuns(const std::string &dir, const std::string &key,
                const std::string &signature, Checks &checks)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/" + key + ".sig";
    std::ifstream in(path, std::ios::binary);
    if (in) {
        std::stringstream prev;
        prev << in.rdbuf();
        checks.require(prev.str() == signature,
                       "virtual/modeled/exact outputs differ from an "
                       "earlier run of the same seed (" + path + ")");
        return;
    }
    std::ofstream out(path, std::ios::binary);
    out << signature;
}

} // namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = makeSpecs();
    return specs;
}

std::unique_ptr<serve::ServingEngine>
makeEngine(const Context &ctx)
{
    return std::make_unique<serve::ServingEngine>(
        ctx.serving, ctx.tracker->pipeline().gazeEstimator(),
        *ctx.renderer);
}

std::unique_ptr<Context>
setUp(const WorkloadSpec &spec, uint64_t seed, int nproc)
{
    auto ctx = std::make_unique<Context>();
    ctx->spec = &spec;
    core::SystemConfig &sys = ctx->system;
    sys.pipeline.camera = spec.camera;
    sys.pipeline.roi_refresh = spec.roi_refresh;

    dataset::RenderConfig rc;
    rc.image_size = sys.pipeline.scene_size;
    ctx->renderer =
        std::make_unique<dataset::SyntheticEyeRenderer>(rc, kRendererSeed);
    ctx->tracker = std::make_unique<core::EyeCoDSystem>(sys);
    ctx->tracker->train(*ctx->renderer, spec.train_count);

    const auto s0 = Clock::now();
    ctx->perf = ctx->tracker->simulatePerformance();
    ctx->simulate_ms = secondsSince(s0) * 1e3;

    serve::ServingConfig &cfg = ctx->serving;
    cfg.system = sys;
    cfg.virtual_chips = spec.chips;
    cfg.scheduler_threads =
        std::max(1, std::min(spec.scheduler_threads, nproc));
    cfg.queue_capacity = spec.queue_capacity;
    cfg.record_gaze = true;
    cfg.record_completions = true;
    if (spec.chaos) {
        const ChaosPlan &p = spec.plan;
        cfg.failover.chip_faults = {
            {p.fail_us, p.fail_chip, serve::ChipEventKind::Fail, 0},
            {p.retire_us, p.retire_chip, serve::ChipEventKind::RetireLanes,
             p.retire_lanes},
            {p.rejoin_us, p.fail_chip, serve::ChipEventKind::Rejoin, 0},
        };
    }
    ctx->engine = makeEngine(*ctx);

    serve::TrafficConfig tc;
    tc.sessions = spec.sessions;
    tc.frames_per_session = spec.fleet_frames;
    tc.trajectory.blink_rate = spec.blink_rate;
    tc.seed = kPanelSeed;
    const std::vector<serve::SessionTraffic> panel =
        serve::makeTraffic(*ctx->renderer, tc);
    tc.seed = mix64(seed ^ 0x7ea5e11ULL);
    ctx->traffic = serve::makeTraffic(*ctx->renderer, tc);
    for (size_t i = 0; i < ctx->traffic.size(); ++i) {
        ctx->traffic[i].user_seed = panel[i].user_seed;
        for (size_t f = 0; f < ctx->traffic[i].frames.size(); ++f)
            ctx->traffic[i].frames[f].params = panel[i].frames[f].params;
    }
    ctx->noise_seed = mix64(seed ^ 0x401535ULL);
    for (size_t i = 0; i < ctx->traffic.size(); ++i) {
        const serve::SessionTraffic &st = ctx->traffic[i];
        ctx->events.push_back(TraceEvent{st.join_us, 0, int(i), 0});
        for (size_t f = 0; f < st.frames.size(); ++f)
            ctx->events.push_back(
                TraceEvent{st.frames[f].arrival_us, 1, int(i), long(f)});
    }
    std::sort(ctx->events.begin(), ctx->events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.kind != b.kind)
                      return a.kind < b.kind;
                  if (a.trace != b.trace)
                      return a.trace < b.trace;
                  return a.frame < b.frame;
              });

    dataset::TrajectoryConfig traj;
    traj.frames = kTracePassFrames;
    traj.blink_rate = spec.blink_rate;
    for (int s = 0; s < kTracePassUsers; ++s)
        ctx->subjects.push_back(dataset::makeTrajectory(
            *ctx->renderer, mix64(kPanelSeed + 0x5b1ec700ULL + uint64_t(s)),
            traj));
    return ctx;
}

FleetReplay
replayFleet(Context &ctx, std::unique_ptr<serve::ServingEngine> eng,
            SpanRecorder &spans, Checks &checks)
{
    const WorkloadSpec &spec = *ctx.spec;
    const ChaosPlan &plan = spec.plan;
    const std::vector<TraceEvent> &events = ctx.events;
    const std::vector<serve::SessionTraffic> &traffic = ctx.traffic;
    FleetReplay out;
    out.model = eng->serviceModel();

    std::vector<int> ids(traffic.size(), -1); // trace -> session id
    size_t next = 0;
    std::vector<uint8_t> snapshot;
    std::vector<int> snapshot_ids;
    size_t snapshot_next = 0;
    long long next_checkpoint = spec.chaos ? plan.checkpoint_every_us : -1;
    bool killed = false;

    // Per-frame wall latency: submit time per (trace, frame), and the
    // first completion of each frame (a restored engine redoes some).
    // A session's first frames warm its buffers, so only frames
    // submitted after the session's first completion count.
    std::vector<std::vector<double>> submitted_us(traffic.size());
    std::vector<std::vector<char>> completed(traffic.size());
    for (size_t i = 0; i < traffic.size(); ++i) {
        submitted_us[i].assign(traffic[i].frames.size(), -1.0);
        completed[i].assign(traffic[i].frames.size(), 0);
    }
    std::vector<double> warm_us(traffic.size(), -1.0);
    std::vector<int> trace_of; // session id -> trace
    size_t scanned = 0;        // completion-log entries seen

    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    const auto collect = [&](Clock::time_point now) {
        const std::vector<serve::CompletionRecord> &log =
            eng->completionLog();
        for (; scanned < log.size(); ++scanned) {
            const serve::CompletionRecord &rec = log[scanned];
            const size_t tr = size_t(trace_of[size_t(rec.session)]);
            const size_t f = size_t(rec.frame_index);
            if (completed[tr][f])
                continue;
            completed[tr][f] = 1;
            const double now_us = microsBetween(t0, now);
            if (warm_us[tr] < 0.0)
                warm_us[tr] = now_us;
            else if (submitted_us[tr][f] >= warm_us[tr])
                out.frame_wall_ms.push_back(
                    (now_us - submitted_us[tr][f]) * 1e-3);
        }
    };
    const auto engineCall = [&](const char *name, auto &&call) {
        const auto a = Clock::now();
        call();
        const auto b = Clock::now();
        spans.record(name, a, b);
        out.engine_s += microsBetween(a, b) * 1e-6;
        collect(b);
    };
    const auto advance = [&](long long t) {
        engineCall("ServingEngine::advanceTo", [&] { eng->advanceTo(t); });
    };

    while (next < events.size()) {
        const TraceEvent &ev = events[next];
        if (spec.chaos && !killed && ev.t > plan.kill_us) {
            // Crash: the engine and all work since its newest
            // snapshot are lost; a fresh engine resumes from the
            // snapshot, and the trace resumes from the snapshot's event.
            advance(plan.kill_us);
            const serve::FleetMetrics victim = eng->fleetMetrics();
            out.steady_allocs = victim.steady_allocs;
            checks.require(victim.steady_frames > 0,
                           "chaos: no steady frame before the kill");
            checks.require(!snapshot.empty(), "chaos: no snapshot to restore");
            for (size_t i = 0; i < traffic.size(); ++i) {
                warm_us[i] = -1.0; // restored sessions start cold
                for (size_t f = 0; f < submitted_us[i].size(); ++f)
                    if (submitted_us[i][f] >= 0.0)
                        completed[i][f] = 1;
            }
            const auto r0 = Clock::now();
            eng = makeEngine(ctx);
            const Status st = eng->restoreSnapshot(snapshot);
            const auto r1 = Clock::now();
            spans.record("rebuild+ServingEngine::restoreSnapshot", r0, r1);
            out.restore_ms = microsBetween(r0, r1) * 1e-3;
            checks.require(st.isOk(), "restoreSnapshot: " + st.toString());
            checks.require(eng->saveSnapshot() == snapshot,
                           "a snapshot saved right after restoreSnapshot "
                           "differs from the restored one");
            scanned = eng->completionLog().size();
            ids = snapshot_ids;
            next = snapshot_next;
            killed = true;
            continue;
        }
        if (next_checkpoint > 0 && ev.t > next_checkpoint) {
            // Checkpoints land on the scheduler's tick grid, after
            // every event at or before the checkpoint time.
            advance(next_checkpoint);
            const auto s0 = Clock::now();
            snapshot = eng->saveSnapshot();
            const auto s1 = Clock::now();
            spans.record("ServingEngine::saveSnapshot", s0, s1);
            out.save_ms.push_back(microsBetween(s0, s1) * 1e-3);
            out.snapshot_bytes = snapshot.size();
            snapshot_ids = ids;
            snapshot_next = next;
            next_checkpoint += plan.checkpoint_every_us;
            continue;
        }
        advance(ev.t);
        if (ev.kind == 0) {
            const Result<int> r = [&] {
                ScopedSpan span(spans, "ServingEngine::openSession");
                return eng->openSession();
            }();
            if (r.ok()) {
                ids[size_t(ev.trace)] = r.value();
                if (trace_of.size() <= size_t(r.value()))
                    trace_of.resize(size_t(r.value()) + 1, -1);
                trace_of[size_t(r.value())] = ev.trace;
            }
        } else if (ids[size_t(ev.trace)] >= 0) {
            const Status st = [&] {
                ScopedSpan span(spans, "ServingEngine::submitFrame", -1,
                                ev.frame);
                return eng->submitFrame(
                    ids[size_t(ev.trace)],
                    traffic[size_t(ev.trace)].frames[size_t(ev.frame)]);
            }();
            if (!st.isOk())
                checks.require(false, "submitFrame: " + st.toString());
            submitted_us[size_t(ev.trace)][size_t(ev.frame)] =
                microsBetween(t0, Clock::now());
        }
        ++next;
    }
    engineCall("ServingEngine::drain", [&] { eng->drain(); });
    out.wall_s = secondsSince(t0);
    out.cpu_s = processCpuSeconds() - cpu0;
    if (spec.chaos)
        checks.require(killed, "chaos: the engine was never killed");

    // --- Output checks and scoring, on the drained engine.
    const serve::ServingEngine &e = *eng;
    out.fleet = e.fleetMetrics();
    const serve::FleetMetrics &fm = out.fleet;
    if (spec.chaos)
        checks.require(fm.redispatched_frames > 0,
                       "chaos: the chip failure hit no batch in flight");
    const std::vector<serve::CompletionRecord> &log = e.completionLog();
    checks.require(e.completionLogDropped() == 0 &&
                       (long long)log.size() == fm.completed,
                   "completion log does not hold every completion");
    checks.require(fm.drop_log_overflow == 0, "drop log overflowed");
    checks.require(AllocCounter::hooksInstalled(),
                   "allocation hooks are not linked");
    if (!killed)
        out.steady_allocs = fm.steady_allocs;
    checks.require(fm.steady_frames > 0 && out.steady_allocs == 0,
                   "steady frames allocated: " +
                       std::to_string(out.steady_allocs));

    FleetAccounting &acc = out.accounting;
    for (size_t i = 0; i < traffic.size(); ++i) {
        const long long n = (long long)traffic[i].frames.size();
        acc.offered += n;
        if (ids[i] < 0)
            acc.rejected_session_frames += n;
    }
    acc.submitted = fm.submitted;
    acc.completed = fm.completed;
    acc.drops = fm.queue_drops;
    acc.drops_backpressure = fm.drops_backpressure;
    acc.drops_shed_on_close = fm.drops_shed_on_close;
    acc.drops_rate_downgrade = fm.drops_rate_downgrade;
    acc.drops_failover = fm.drops_failover;
    checkAccounting(acc, checks);
    out.offered = acc.offered;

    Fnv fnv;
    std::vector<std::vector<const serve::CompletionRecord *>> done(
        size_t(e.sessionCount()));
    for (const serve::CompletionRecord &rec : log) {
        out.latency_us.push_back(rec.latency_us);
        if (!rec.deadline_miss)
            ++out.ontime;
        done[size_t(rec.session)].push_back(&rec);
        fnv.add(rec.session);
        fnv.add(rec.frame_index);
        fnv.add(rec.completion_us);
        fnv.add(rec.redispatched);
    }
    std::vector<long> submitted;
    std::vector<ServedGaze> served;
    for (size_t i = 0; i < traffic.size(); ++i) {
        const int sid = ids[i];
        if (sid < 0)
            continue;
        const serve::SessionMetrics &m = e.sessionMetrics(sid);
        out.max_queue_depth = std::max(out.max_queue_depth, m.max_queue_depth);
        submitted.resize(traffic[i].frames.size());
        std::iota(submitted.begin(), submitted.end(), 0L);
        std::string error;
        if (!matchServedGaze(submitted, m.drop_log, e.sessionGazeLog(sid),
                             &served, &error)) {
            checks.require(false, "session " + std::to_string(sid) + ": " +
                                      error);
            continue;
        }
        std::unordered_map<long, const dataset::GazeVec *> by_frame;
        for (const ServedGaze &sg : served) {
            if (!finite(sg.gaze))
                checks.require(false, "served a non-finite gaze");
            by_frame[sg.frame_index] = &sg.gaze;
        }
        const size_t first_err = out.gaze_err.size();
        for (const serve::CompletionRecord *rec : done[size_t(sid)]) {
            const auto it = by_frame.find(rec->frame_index);
            if (it == by_frame.end()) {
                checks.require(false, "a completed frame is missing from "
                                      "its session's served stream");
                continue;
            }
            const dataset::EyeParams &p =
                traffic[i].frames[size_t(rec->frame_index)].params;
            fnv.add(*it->second);
            if (p.eyelid_open < kBlinkLid)
                ++out.blink_frames;
            else
                out.gaze_err.push_back(groundTruthError(*it->second, p));
        }
        out.user_p95.push_back(percentile(
            std::vector<double>(out.gaze_err.begin() + long(first_err),
                                out.gaze_err.end()),
            0.95));
    }
    for (int t = 0; t <= serve::kNumDegradationTiers; ++t)
        out.ticks += fm.tier_residency[t];

    fnv.add(fm.submitted);
    fnv.add(fm.queue_drops);
    fnv.add(fm.redispatched_frames);
    fnv.add(fm.degraded_res_frames);
    fnv.add(fm.tier_transitions);
    fnv.add(out.ticks);
    out.signature = "fleet " + std::to_string(fm.completed) + " " +
                    std::to_string(out.ontime) + " " + fnv.hex();
    return out;
}

int
emitResult(const MetricSet &metrics, const Checks &checks,
           long long attempted, long long failed)
{
    std::printf("%s", metrics.table().c_str());
    for (const std::string &f : checks.failures())
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    std::printf("checks: %s\n",
                checks.ok() ? "all passed" : "FAILED (see stderr)");
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                checks.ok() ? "true" : "false", attempted, failed,
                metrics.json().c_str());
    std::fflush(stdout);
    return checks.ok() ? 0 : 1;
}

int
runWorkload(const RunOptions &opt)
{
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workloadSpecs())
        if (s.name == opt.workload)
            spec = &s;
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    HostInfo host = probeHost(opt.git_sha);
    const int nproc = int(std::max(1L, host.nproc));
    const int threads = std::max(1, std::min(spec->scheduler_threads, nproc));
    host.scheduler_threads = threads;
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                spec->name.c_str(), (unsigned long long)opt.seed,
                opt.seconds, opt.trace ? 1 : 0);
    std::printf("host %s\n", host.json().c_str());

    // --- Set-up, repeated; the last context serves the run.
    std::vector<double> setup_s;
    std::unique_ptr<Context> ctx;
    for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
        ctx.reset();
        const auto t0 = Clock::now();
        ctx = setUp(*spec, opt.seed, nproc);
        setup_s.push_back(secondsSince(t0));
    }

    Checks checks;
    SpanRecorder off(false);
    SpanRecorder on(opt.trace);
    // --- The fleet, repeated while the budget lasts. A traced run
    // alternates untraced and traced replays; per-layer numbers come
    // from the traced ones only.
    std::vector<FleetReplay> replays, traced_replays;
    const auto phase = Clock::now();
    for (int k = 0;; ++k) {
        const bool tr = opt.trace && k % 2 == 1;
        std::unique_ptr<serve::ServingEngine> eng =
            ctx->engine ? std::move(ctx->engine) : makeEngine(*ctx);
        const auto p0 = Clock::now();
        FleetReplay r = replayFleet(*ctx, std::move(eng), tr ? on : off,
                                    checks);
        (tr ? traced_replays : replays).push_back(std::move(r));
        const double last = secondsSince(p0);
        const bool enough = !opt.trace || !traced_replays.empty();
        if (enough && secondsSince(phase) + last > opt.seconds)
            break;
    }

    // --- Every repetition reproduces the first one exactly.
    long long attempted = 0, failed = 0;
    for (const std::vector<FleetReplay> *v : {&replays, &traced_replays})
        for (const FleetReplay &r : *v) {
            checks.require(r.signature == replays.front().signature,
                           "fleet replays differ: " + r.signature + " vs " +
                               replays.front().signature);
            // A frame fails when it is never completed; late frames
            // count against ontime_ratio instead.
            attempted += r.offered;
            failed += r.offered - r.fleet.completed;
        }

    // --- End-to-end metrics (untraced replays).
    const FleetReplay &r0 = replays.front();
    std::vector<double> pipeline_fps, serve_fps, frame_ms;
    for (const FleetReplay &r : replays) {
        serve_fps.push_back(double(r.fleet.completed) / r.wall_s);
        pipeline_fps.push_back(double(r.fleet.completed) / r.engine_s);
        frame_ms.insert(frame_ms.end(), r.frame_wall_ms.begin(),
                        r.frame_wall_ms.end());
    }

    using C = MetricClock;
    MetricSet e2e;
    bool added = true;
    added &= e2e.add("setup_s", "s", C::Wall, median(setup_s));
    added &= e2e.add("pipeline_fps", "frames/s", C::Wall,
                     median(pipeline_fps));
    added &= e2e.add("frame_p50_ms", "ms", C::Wall,
                     percentile(frame_ms, 0.50));
    added &= e2e.add("frame_p99_ms", "ms", C::Wall,
                     percentile(frame_ms, 0.99));
    added &= e2e.add("serve_frames_per_wall_s", "frames/s", C::Wall,
                     median(serve_fps));
    added &= e2e.add("latency_p50_us", "us", C::Virtual,
                     percentile(r0.latency_us, 0.50));
    added &= e2e.add("latency_p99_us", "us", C::Virtual,
                     percentile(r0.latency_us, 0.99));
    added &= e2e.add("ontime_ratio", "ratio", C::Virtual,
                     ratio(double(r0.ontime), double(r0.offered)));
    added &= e2e.add("goodput_fps", "frames/s", C::Virtual,
                     ratio(double(r0.ontime) * 1e6,
                           double(r0.fleet.makespan_us)));
    // gaze_err_p95_deg is the median user's p95: the fleet-wide p95
    // moves past any bound whenever one user is tracked badly.
    added &= e2e.add("gaze_err_p50_deg", "deg", C::Exact,
                     percentile(r0.gaze_err, 0.50));
    added &= e2e.add("gaze_err_p95_deg", "deg", C::Exact,
                     median(r0.user_p95));
    added &= e2e.add("accel_fps", "FPS", C::Modeled, ctx->perf.fps);
    added &= e2e.add("accel_j_per_frame", "J", C::Modeled,
                     ctx->perf.energy_per_frame_j);
    added &= e2e.add("peak_rss_mb", "MB", C::Wall, peakRssMb());
    checks.require(added, "an end-to-end metric was rejected");
    checks.require(!r0.gaze_err.empty(), "no gaze was scored");

    char key[96];
    std::snprintf(key, sizeof(key), "%s-%llu", spec->name.c_str(),
                  (unsigned long long)opt.seed);
    checkAcrossRuns(opt.out_dir + "/determinism", key,
                    e2e.deterministicSignature() + r0.signature, checks);

    if (!opt.trace) {
        std::printf("end-to-end metrics (%zu fleet replays):\n",
                    replays.size());
        return emitResult(e2e, checks, attempted, failed);
    }

    // --- Per-layer metrics: one traced tracker pass for the stages,
    // and the traced replays.
    StageReplay stages = makeStageReplay(ctx->system.pipeline);
    const TrackerPass tp = runTrackerPass(*ctx, stages, on, checks);
    const FleetReplay &rt = traced_replays.front();
    const serve::FleetMetrics &fm = rt.fleet;
    double advance_ms = 0.0, traced_wall = 0.0, traced_cpu = 0.0;
    long long traced_served = 0;
    for (double us : on.durationsUs("ServingEngine::advanceTo"))
        advance_ms += us * 1e-3;
    for (const FleetReplay &r : traced_replays) {
        traced_wall += r.wall_s;
        traced_cpu += r.cpu_s;
        traced_served += r.fleet.completed;
    }
    std::vector<double> open_ms;
    for (double us : on.durationsUs("ServingEngine::openSession"))
        open_ms.push_back(us * 1e-3);
    std::vector<double> save_ms;
    double restore_ms = 0.0;
    for (const FleetReplay &r : traced_replays) {
        save_ms.insert(save_ms.end(), r.save_ms.begin(), r.save_ms.end());
        restore_ms = std::max(restore_ms, r.restore_ms);
    }
    const double subm = double(fm.submitted);

    std::vector<double> traced_fps;
    for (const FleetReplay &r : traced_replays)
        traced_fps.push_back(double(r.fleet.completed) / r.wall_s);

    MetricSet layers;
    const auto L = [&](const char *name, const char *unit, C clock,
                       double v) { added &= layers.add(name, unit, clock, v); };
    L("dataset.render_ms", "ms", C::Wall,
      p50OrZero(tp.render_ms));
    L("flatcam.multiplex_ms", "ms", C::Wall,
      p50OrZero(tp.mux_ms));
    L("flatcam.reconstruct_ms", "ms", C::Wall,
      p50OrZero(tp.recon_ms));
    L("flatcam.gmac_per_s", "GMAC/s", C::Wall,
      ratio(double(stages.flatcam_macs) * double(tp.frames) * 1e-9,
            tp.flatcam_s));
    L("flatcam.frame_share", "ratio", C::Wall,
      ratio(tp.flatcam_s, tp.process_s));
    L("eyetrack.segment_ms", "ms", C::Wall,
      p50OrZero(tp.seg_ms));
    L("eyetrack.roi_us", "us", C::Wall,
      p50OrZero(tp.roi_us));
    L("eyetrack.gaze_us", "us", C::Wall,
      p50OrZero(tp.gaze_us));
    L("eyetrack.pipeline_self_ms", "ms", C::Wall,
      p50OrZero(tp.self_ms));
    L("eyetrack.refresh_ratio", "ratio", C::Exact,
      ratio(double(tp.refreshes), double(tp.frames)));
    L("eyetrack.roi_reject_ratio", "ratio", C::Exact,
      ratio(double(tp.rejections), double(tp.refreshes)));
    L("eyetrack.degraded_ratio", "ratio", C::Exact,
      ratio(double(tp.degraded), double(tp.frames)));
    L("eyetrack.gaze_hold_ratio", "ratio", C::Exact,
      ratio(double(tp.holds), double(tp.frames)));
    L("eyetrack.blink_frames", "count", C::Exact, double(r0.blink_frames));
    L("serve.advance_ms_per_frame", "ms", C::Wall,
      ratio(advance_ms, double(traced_served)));
    L("serve.submit_us", "us", C::Wall,
      p50OrZero(on.durationsUs("ServingEngine::submitFrame")));
    L("serve.cpu_util", "ratio", C::Wall,
      ratio(traced_cpu, traced_wall * double(threads)));
    L("serve.frames_per_tick", "frames", C::Virtual,
      ratio(double(fm.completed), double(rt.ticks)));
    L("serve.chip_util", "ratio", C::Virtual, fm.backend_utilization);
    L("serve.max_queue_depth", "frames", C::Virtual,
      double(rt.max_queue_depth));
    L("serve.drop_ratio.backpressure", "ratio", C::Virtual,
      ratio(double(fm.drops_backpressure), subm));
    L("serve.drop_ratio.rate_downgrade", "ratio", C::Virtual,
      ratio(double(fm.drops_rate_downgrade), subm));
    L("serve.drop_ratio.failover", "ratio", C::Virtual,
      ratio(double(fm.drops_failover), subm));
    L("serve.drop_ratio.shed_on_close", "ratio", C::Virtual,
      ratio(double(fm.drops_shed_on_close), subm));
    L("serve.deadline_miss_ratio", "ratio", C::Virtual,
      ratio(double(fm.deadline_misses), subm));
    L("serve.sessions_rejected", "count", C::Virtual,
      double(fm.sessions_rejected));
    L("serve.redispatch_ratio", "ratio", C::Virtual,
      ratio(double(fm.redispatched_frames), double(fm.completed)));
    L("serve.failover_p99_us", "us", C::Virtual, fm.failover_p99_latency_us);
    L("serve.degraded_res_ratio", "ratio", C::Virtual,
      ratio(double(fm.degraded_res_frames), double(fm.completed)));
    for (int t = 0; t <= serve::kNumDegradationTiers; ++t) {
        const std::string name = "serve.tier_residency.t" + std::to_string(t);
        added &= layers.add(name, "ratio", C::Virtual,
                            ratio(double(fm.tier_residency[t]),
                                  double(rt.ticks)));
    }
    L("serve.tier_transitions", "count", C::Virtual,
      double(fm.tier_transitions));
    L("serve.snapshot_save_ms", "ms", C::Wall, p50OrZero(save_ms));
    L("serve.snapshot_bytes", "B", C::Exact, double(rt.snapshot_bytes));
    L("serve.restore_ms", "ms", C::Wall, restore_ms);
    L("serve.open_session_ms", "ms", C::Wall, p50OrZero(open_ms));
    L("serve.model.gaze_frame_us", "us", C::Modeled, rt.model.gaze_frame_us);
    L("serve.model.seg_frame_us", "us", C::Modeled, rt.model.seg_frame_us);
    L("serve.model.amortized_frame_us", "us", C::Modeled,
      rt.model.amortized_frame_us);
    L("serve.steady_allocs", "count", C::Exact, double(rt.steady_allocs));
    L("accel.simulate_ms", "ms", C::Wall, ctx->simulate_ms);
    L("accel.utilization", "ratio", C::Modeled, ctx->perf.utilization);
    L("accel.fps_peak", "FPS", C::Modeled, ctx->perf.fps_peak);
    L("accel.frame_cycles", "cycles", C::Modeled,
      double(ctx->perf.frame_cycles));
    L("accel.power_w", "W", C::Modeled, ctx->perf.power_w);
    L("accel.seg_hidden_fraction", "ratio", C::Modeled,
      ctx->perf.seg_hidden_fraction);
    L("common.arena_peak_bytes", "B", C::Exact,
      double(std::max<long long>(
          (long long)ctx->tracker->arenaStats().peak_epoch_bytes,
          fm.peak_arena_bytes)));
    L("trace_overhead_pct", "%", C::Wall,
      100.0 * (1.0 - ratio(median(traced_fps), median(serve_fps))));
    checks.require(added, "a per-layer metric was rejected");

    const std::string trace_dir = opt.out_dir + "/traces";
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    const std::string trace_path = trace_dir + "/" + key + ".json";
    std::ofstream trace_file(trace_path, std::ios::binary);
    trace_file << on.chromeTrace(host.json());
    checks.require(bool(trace_file), "cannot write " + trace_path);
    std::printf("trace: %s (%zu spans dropped)\n", trace_path.c_str(),
                on.dropped());
    std::printf("per-layer metrics (%zu traced fleet replays):\n",
                traced_replays.size());
    return emitResult(layers, checks, attempted, failed);
}

} // namespace perfbench
