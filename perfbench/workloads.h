/**
 * @file
 * The benchmark's workloads and how a run measures them.
 *
 * A workload fixes a pipeline configuration (camera, ROI refresh,
 * blinks) and a fleet shape (sessions, virtual chips, scheduler
 * threads, chip chaos). A run replays the workload's open-loop trace
 * through a ServingEngine in virtual time — event by event through
 * openSession, submitFrame, advanceTo and drain — until the time
 * budget is spent; every replay must reproduce the first one's
 * virtual and exact outputs bit for bit. A traced run also replays a
 * short closed-loop tracker pass through the pipeline's stages for
 * the per-layer numbers.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/eyecod.h"
#include "harness.h"
#include "serve/engine.h"

namespace perfbench {

/** Scripted chip chaos of a fleet (virtual microseconds). */
struct ChaosPlan
{
    int fail_chip = 0;
    long long fail_us = 0;   ///< Whole-chip outage ...
    long long rejoin_us = 0; ///< ... until it rejoins.
    int retire_chip = 2;
    long long retire_us = 0; ///< BIST maps lanes out of another chip.
    int retire_lanes = 0;
    long long checkpoint_every_us = 0; ///< saveSnapshot cadence.
    long long kill_us = 0; ///< Engine killed, restored from snapshot.
};

/** One workload's fixed shape; the seed supplies its inputs. */
struct WorkloadSpec
{
    std::string name;
    eyecod::eyetrack::CameraKind camera =
        eyecod::eyetrack::CameraKind::FlatCam;
    int roi_refresh = 50;
    double blink_rate = 0.0; ///< Blinks per second in trajectories.
    int sessions = 1;
    int chips = 1;
    int scheduler_threads = 1; ///< Capped at nproc.
    long fleet_frames = 120;   ///< Frames per fleet session.
    size_t queue_capacity = 8;
    int train_count = 200;
    bool chaos = false;
    ChaosPlan plan;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloadSpecs();

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
    std::string git_sha;
};

/** Run one workload; prints the result and returns the exit code. */
int runWorkload(const RunOptions &opt);

/** One fleet-trace event, in the engine's runTrace order. */
struct TraceEvent
{
    long long t = 0;
    int kind = 0; ///< 0 = join, 1 = frame.
    int trace = 0;
    long frame = 0;
};

/**
 * Everything set-up builds for one run: renderer, trained tracker,
 * accelerator report, serving configuration and the seeded inputs.
 */
struct Context
{
    const WorkloadSpec *spec = nullptr;
    eyecod::core::SystemConfig system;
    std::unique_ptr<eyecod::dataset::SyntheticEyeRenderer> renderer;
    /** Trained tracker; the fleet sessions share its estimator. */
    std::unique_ptr<eyecod::core::EyeCoDSystem> tracker;
    eyecod::accel::PerfReport perf;
    double simulate_ms = 0.0;
    eyecod::serve::ServingConfig serving;
    /** First fleet engine; later replays build their own. */
    std::unique_ptr<eyecod::serve::ServingEngine> engine;
    std::vector<eyecod::serve::SessionTraffic> traffic;
    std::vector<TraceEvent> events; ///< traffic, flattened and sorted.
    /** Scene trajectories of the traced run's tracker pass. */
    std::vector<std::vector<eyecod::dataset::EyeParams>> subjects;
    uint64_t noise_seed = 0; ///< Tracker render noise stream.
};

/** Build a run's context for @p spec from @p seed. */
std::unique_ptr<Context> setUp(const WorkloadSpec &spec, uint64_t seed,
                               int nproc);

/** Outcome of one fleet replay. */
struct FleetReplay
{
    double wall_s = 0.0; ///< First openSession to drain.
    double cpu_s = 0.0;  ///< Process CPU time over the replay.
    /** Wall time inside advanceTo and drain, where the engine renders
     *  and runs the pipeline for every served frame. */
    double engine_s = 0.0;
    /** Per completed frame: wall time from its submitFrame to the
     *  return of the engine call that completed it. Frames of a cold
     *  session and frames in flight across a kill are left out. */
    std::vector<double> frame_wall_ms;
    eyecod::serve::FleetMetrics fleet;
    FleetAccounting accounting;
    long long offered = 0;
    long long ontime = 0;
    std::vector<double> latency_us;  ///< Completed frames.
    std::vector<double> gaze_err;    ///< Scored served frames.
    std::vector<double> user_p95;    ///< p95 error of each session.
    long long blink_frames = 0;      ///< Served frames not scored.
    long long max_queue_depth = 0;
    long long ticks = 0;
    /** Steady-frame heap allocations; on a killed engine, those
     *  before the kill (a restored engine's buffers start cold). */
    long long steady_allocs = 0;
    std::vector<double> save_ms;
    double restore_ms = 0.0;
    size_t snapshot_bytes = 0;
    eyecod::serve::ServiceModel model;
    std::string signature; ///< Virtual and exact outputs.
};

/**
 * Replay the context's trace through @p engine (construction is not
 * timed), checking the outputs into @p checks.
 */
FleetReplay replayFleet(Context &ctx,
                        std::unique_ptr<eyecod::serve::ServingEngine> engine,
                        SpanRecorder &spans, Checks &checks);

/** Fresh engine for @p ctx. */
std::unique_ptr<eyecod::serve::ServingEngine> makeEngine(const Context &ctx);

/**
 * Print the result: the metric table, any failed check (stderr), and
 * the one-line JSON result last. Returns the exit code: non-zero when
 * a check failed.
 */
int emitResult(const MetricSet &metrics, const Checks &checks,
               long long attempted, long long failed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
