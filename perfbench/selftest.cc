/**
 * @file
 * Self-tests of the benchmark's own logic: the percentile helper, the
 * metric name and unit validator, the served-gaze matcher (alone and
 * on a tiny engine), and the failing-check path.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

int g_failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("  [%s] %s\n", ok ? " ok " : "FAIL", what);
    if (!ok)
        ++g_failures;
}

void
testPercentile()
{
    using eyecod::percentile;
    expect(percentile({4, 1, 3, 2}, 0.5) == 2.5, "median interpolates");
    expect(percentile({4, 1, 3, 2}, 0.0) == 1.0, "q=0 is the minimum");
    expect(percentile({4, 1, 3, 2}, 1.0) == 4.0, "q=1 is the maximum");
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(std::fabs(percentile(hundred, 0.99) - 99.01) < 1e-9,
           "p99 of 1..100 is 99.01");
    expect(percentile({7.5}, 0.99) == 7.5, "single sample");
}

void
testValidators()
{
    expect(validMetricName("latency_p50_us"), "plain name accepted");
    expect(validMetricName("serve.drop_ratio.backpressure"),
           "dotted name accepted");
    expect(validMetricName("flatcam.gmac-per-s"), "dash accepted");
    expect(!validMetricName(""), "empty name rejected");
    expect(!validMetricName("_x"), "leading underscore rejected");
    expect(!validMetricName("a b"), "space rejected");
    expect(!validMetricName(std::string(65, 'a')), "65 letters rejected");
    expect(validMetricName(std::string(64, 'a')), "64 letters accepted");
    expect(validMetricUnit("frames/s") && validMetricUnit("%") &&
               validMetricUnit("1/s") && validMetricUnit("GMAC/s"),
           "units accepted");
    expect(!validMetricUnit("") && !validMetricUnit("m s") &&
               !validMetricUnit(std::string(17, 's')) &&
               !validMetricUnit("\xc2\xb5s"),
           "bad units rejected");

    MetricSet set;
    expect(set.add("x", "ms", MetricClock::Wall, 0.1 + 0.2), "add");
    expect(!set.add("x", "ms", MetricClock::Wall, 1.0), "duplicate rejected");
    expect(!set.add("y", "ms", MetricClock::Wall, NAN), "NaN rejected");
    const std::string json = set.json();
    const size_t at = json.find("\"value\": ");
    const double back = std::strtod(json.c_str() + at + 9, nullptr);
    expect(back == 0.1 + 0.2, "JSON keeps every digit");
}

void
testMatcherAlone()
{
    using eyecod::serve::DropReason;
    using eyecod::serve::DropRecord;
    const std::vector<long> submitted{0, 1, 2, 3, 4, 5};
    const std::vector<DropRecord> drops{
        {1, 0, 0, DropReason::Backpressure},
        {3, 0, 0, DropReason::RateDowngrade},
        {4, 0, 0, DropReason::Failover}, // dispatched, then shed
    };
    const std::vector<eyecod::dataset::GazeVec> log{
        {0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {0, 0, -1}};
    std::vector<ServedGaze> served;
    std::string error;
    const bool ok = matchServedGaze(submitted, drops, log, &served, &error);
    expect(ok && served.size() == 4 && served[0].frame_index == 0 &&
               served[1].frame_index == 2 && served[2].frame_index == 4 &&
               served[3].frame_index == 5 && served[3].gaze[2] == -1,
           "matcher skips frames shed before dispatch");
    const std::vector<eyecod::dataset::GazeVec> short_log(log.begin(),
                                                          log.end() - 1);
    expect(!matchServedGaze(submitted, drops, short_log, &served, &error) &&
               !error.empty(),
           "matcher fails on a count mismatch");
}

/** Tiny overloaded lens fleet: drops exercise the matcher. */
void
testTinyEngine()
{
    WorkloadSpec tiny;
    tiny.name = "selftest_tiny";
    tiny.camera = eyecod::eyetrack::CameraKind::Lens;
    tiny.roi_refresh = 5;
    tiny.sessions = 8;
    tiny.chips = 1;
    tiny.scheduler_threads = 2;
    tiny.fleet_frames = 30;
    tiny.queue_capacity = 1;
    tiny.train_count = 30;

    std::unique_ptr<Context> ctx = setUp(tiny, 7, 2);
    SpanRecorder off(false);
    Checks checks;
    FleetReplay r =
        replayFleet(*ctx, std::move(ctx->engine), off, checks);
    for (const std::string &f : checks.failures())
        std::printf("    check: %s\n", f.c_str());
    expect(checks.ok(), "tiny engine passes every output check");
    expect(r.fleet.queue_drops > 0, "tiny engine sheds frames");
    expect((long long)r.gaze_err.size() + r.blink_frames ==
               r.fleet.completed,
           "every completed frame is scored");

    // Failing-check path: a broken accounting identity fails the run.
    FleetAccounting broken = r.accounting;
    broken.completed += 1;
    Checks bad;
    checkAccounting(broken, bad);
    expect(!bad.ok(), "broken accounting is detected");
    MetricSet m;
    m.add("x", "ms", MetricClock::Wall, 1.0);
    std::printf("    (a failing result follows on purpose)\n");
    expect(emitResult(m, bad, 1, 0) != 0,
           "a failed check gives a non-zero exit code");
}

} // namespace

int
runSelfTests()
{
    std::printf("perfbench self-tests\n");
    testPercentile();
    testValidators();
    testMatcherAlone();
    testTinyEngine();
    std::printf("%s (%d failed)\n", g_failures ? "FAIL" : "PASS",
                g_failures);
    return g_failures ? 1 : 0;
}

} // namespace perfbench
