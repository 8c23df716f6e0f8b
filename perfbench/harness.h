/**
 * @file
 * Benchmark plumbing shared by the workloads and the self-tests:
 * metric registry with name/unit validation, in-memory span recorder
 * with Chrome trace-event export, host description, output checks,
 * and the served-gaze matcher.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dataset/gaze_math.h"
#include "serve/frame_queue.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Microseconds between two instants. */
double microsBetween(Clock::time_point a, Clock::time_point b);

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Which clock a metric is read from. */
enum class MetricClock {
    Wall,    ///< Host time.
    Virtual, ///< The serving engine's deterministic microseconds.
    Modeled, ///< The accelerator simulator's cycles and energy.
    Exact,   ///< A deterministic count or accuracy.
};

const char *clockName(MetricClock clock);

/** True for a name of 1..64 of [A-Za-z0-9_.-] starting alphanumeric. */
bool validMetricName(const std::string &name);

/** True for a unit of 1..16 of [A-Za-z0-9_/%.-]. */
bool validMetricUnit(const std::string &unit);

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    MetricClock clock = MetricClock::Wall;
    double value = 0.0;
};

/**
 * Ordered metric set. add() rejects an invalid name or unit, a
 * duplicate name, and a non-finite value by returning false; the
 * benchmark treats that as a failed check.
 */
class MetricSet
{
  public:
    bool add(const std::string &name, const std::string &unit,
             MetricClock clock, double value);

    /** Human-readable table: name, value, unit, clock. */
    std::string table() const;

    /** {"name": {"value": v, "unit": u}, ...} with all digits. */
    std::string json() const;

    /**
     * The non-wall metrics as exact hex-float text: two runs of one
     * seed must produce identical signatures.
     */
    std::string deterministicSignature() const;

  private:
    std::vector<Metric> metrics_;
};

/**
 * Spans recorded around calls into the library: name, start, end,
 * parent span, frame id. Kept in memory (bounded) and written as
 * Chrome trace-event JSON at exit. A disabled recorder records
 * nothing and returns id -1.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name = "";
        double start_us = 0.0; ///< Since the recorder's epoch.
        double end_us = 0.0;
        int64_t parent = -1;
        int64_t frame = -1;
    };

    explicit SpanRecorder(bool enabled, size_t capacity = 1u << 21);

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its id (-1 when disabled or
     *  the recorder is full). */
    int64_t record(const char *name, Clock::time_point start,
                   Clock::time_point end, int64_t parent = -1,
                   int64_t frame = -1);

    /** Durations in microseconds of every span named @p name. */
    std::vector<double> durationsUs(const std::string &name) const;

    /** Spans dropped because the recorder was full. */
    size_t dropped() const { return dropped_; }

    /** Chrome trace-event JSON; @p host_json lands in otherData. */
    std::string chromeTrace(const std::string &host_json) const;

  private:
    bool enabled_;
    size_t capacity_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    size_t dropped_ = 0;
};

/** Records one span over its scope when the recorder is enabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, int64_t parent = -1,
               int64_t frame = -1)
        : rec_(rec), name_(name), parent_(parent), frame_(frame)
    {
        if (rec_.enabled())
            start_ = Clock::now();
    }
    ~ScopedSpan()
    {
        if (rec_.enabled())
            rec_.record(name_, start_, Clock::now(), parent_, frame_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    const char *name_;
    int64_t parent_;
    int64_t frame_;
    Clock::time_point start_;
};

/** Description of the host and build a result was measured on. */
struct HostInfo
{
    std::string cpu_model;
    unsigned hardware_threads = 0; ///< std::thread::hardware_concurrency.
    long nproc = 0;                ///< CPUs this process may run on.
    std::string compiler;
    std::string build_type;
    std::string git_sha;
    int scheduler_threads = 0;

    std::string json() const;
};

/** Host and build description; scheduler_threads is the caller's. */
HostInfo probeHost(const std::string &git_sha);

/** Collects failed output checks; any failure fails the run. */
class Checks
{
  public:
    void require(bool ok, const std::string &what);
    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::vector<std::string> failures_;
};

/** Frame accounting of one fleet replay. */
struct FleetAccounting
{
    long long offered = 0;   ///< Frames the trace offered.
    long long rejected_session_frames = 0; ///< Offered to rejected
                                           ///  sessions.
    long long submitted = 0;
    long long completed = 0;
    long long drops = 0;
    long long drops_backpressure = 0;
    long long drops_shed_on_close = 0;
    long long drops_rate_downgrade = 0;
    long long drops_failover = 0;
};

/** Every identity of @p a that does not hold, as check messages. */
void checkAccounting(const FleetAccounting &a, Checks &checks);

/** One served frame of a session's recorded gaze stream. */
struct ServedGaze
{
    long frame_index = 0;
    eyecod::dataset::GazeVec gaze{0, 0, 1};
};

/**
 * Pair a session's recorded gaze stream with frame indices. The
 * session serves its submitted frames in order, minus the ones shed
 * before dispatch (backpressure and rate-downgrade drops); every
 * served frame appends one gaze. Returns false, with @p error set,
 * when the stream length disagrees with that count.
 */
bool matchServedGaze(const std::vector<long> &submitted,
                     const std::vector<eyecod::serve::DropRecord> &drops,
                     const std::vector<eyecod::dataset::GazeVec> &gaze_log,
                     std::vector<ServedGaze> *out, std::string *error);

/** Run the benchmark's self-tests; returns the process exit code. */
int runSelfTests();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
