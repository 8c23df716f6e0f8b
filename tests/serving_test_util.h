/**
 * @file
 * Shared fixtures for the serving tests: one fleet scene renderer
 * and one pre-trained gaze estimator, built lazily once per test
 * binary. Training dominates wall time, and the serving engine's
 * contract is that sessions copy a fleet-calibrated estimator rather
 * than retrain, so the tests share one the same way a deployment
 * would.
 */

#ifndef EYECOD_TESTS_SERVING_TEST_UTIL_H
#define EYECOD_TESTS_SERVING_TEST_UTIL_H

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "flatcam/optics.h"
#include "serve/engine.h"

namespace eyecod {
namespace serve {

/** Per-session system configuration used by every serving test. */
inline core::SystemConfig
servingTestSystem()
{
    core::SystemConfig sys;
    sys.pipeline.camera = eyetrack::CameraKind::Lens;
    sys.pipeline.roi_refresh = 25;
    return sys;
}

/**
 * servingTestSystem() with a FlatCam front end: every session images
 * through the one mask its configuration names.
 */
inline core::SystemConfig
flatcamServingTestSystem()
{
    core::SystemConfig sys = servingTestSystem();
    sys.pipeline.camera = eyetrack::CameraKind::FlatCam;
    return sys;
}

/**
 * The process-wide optics a FlatCam session of @p sys images
 * through (the live copy while any session holds it). Each session's
 * sensor and reconstructor hold one reference apiece, so while the
 * returned pointer is held, use_count() is 1 + 2 x the sessions
 * sharing it.
 */
inline std::shared_ptr<const flatcam::Optics>
sessionOptics(const core::SystemConfig &sys)
{
    return flatcam::sharedOptics(
        eyetrack::flatcamMaskConfig(sys.pipeline),
        sys.pipeline.recon_epsilon);
}

/** Fleet scene renderer shared (const) by every engine under test. */
inline const dataset::SyntheticEyeRenderer &
servingTestRenderer()
{
    static const dataset::SyntheticEyeRenderer *ren = [] {
        dataset::RenderConfig rc;
        rc.image_size = servingTestSystem().pipeline.scene_size;
        return new dataset::SyntheticEyeRenderer(rc, 2019);
    }();
    return *ren;
}

/** Fleet-trained gaze estimator, fitted once per binary. */
inline const eyetrack::RidgeGazeEstimator &
servingTestEstimator()
{
    static const eyetrack::RidgeGazeEstimator *est = [] {
        eyetrack::PredictThenFocusPipeline proto(
            servingTestSystem().pipeline);
        proto.trainGaze(servingTestRenderer(), 150);
        return new eyetrack::RidgeGazeEstimator(
            proto.gazeEstimator());
    }();
    return *est;
}

/**
 * Engine configuration for the tests: the shared system prototype,
 * @p chips virtual accelerators, and a fixed scheduler width (one
 * thread unless a test exercises the thread-count axis).
 */
inline ServingConfig
quickServingConfig(int chips, int threads = 1)
{
    ServingConfig cfg;
    cfg.system = servingTestSystem();
    cfg.virtual_chips = chips;
    cfg.scheduler_threads = threads;
    return cfg;
}

/**
 * Park every degradation-ladder threshold out of reach so a test can
 * observe the engine's raw overload behavior (deadline misses,
 * backpressure drops) without the ladder stepping in.
 */
inline void
disableDegradationLadder(ServingConfig &cfg)
{
    for (int i = 0; i < kNumDegradationTiers; ++i) {
        cfg.degradation.engage_pressure[size_t(i)] = 1e18;
        cfg.degradation.disengage_pressure[size_t(i)] = 1e17;
    }
}

/**
 * Every observable output of @p eng folded into one string:
 * hex-exact gaze streams, drop logs, serialized metrics JSON, and
 * the completion log when recorded. Byte equality of two signatures
 * is the "bitwise identical" claim of the determinism and recovery
 * contracts.
 */
inline std::string
engineSignature(const ServingEngine &eng)
{
    std::string sig;
    char buf[160];
    for (int s = 0; s < eng.sessionCount(); ++s) {
        for (const dataset::GazeVec &g : eng.sessionGazeLog(s)) {
            std::snprintf(buf, sizeof(buf), "%a,%a,%a;", g[0], g[1],
                          g[2]);
            sig += buf;
        }
        for (const DropRecord &d : eng.sessionMetrics(s).drop_log) {
            std::snprintf(buf, sizeof(buf), "d%ld@%lld/%lld:%s;",
                          d.frame_index, d.arrival_us, d.dropped_us,
                          dropReasonName(d.reason));
            sig += buf;
        }
    }
    for (const CompletionRecord &c : eng.completionLog()) {
        std::snprintf(buf, sizeof(buf), "c%d:%ld@%lld->%lld%s%s;",
                      c.session, c.frame_index, c.arrival_us,
                      c.completion_us, c.redispatched ? "R" : "",
                      c.deadline_miss ? "M" : "");
        sig += buf;
    }
    PerfJson json;
    eng.exportMetrics(json, "serving");
    sig += json.serialize();
    return sig;
}

/** Report only the first divergence: a full dump runs to megabytes. */
inline void
expectSameSignature(const std::string &a, const std::string &b,
                    const char *what)
{
    if (a == b)
        return;
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    ADD_FAILURE() << what << ": signatures diverge at byte " << i
                  << ": " << a.substr(i, 48) << " vs "
                  << b.substr(i, 48);
}

} // namespace serve
} // namespace eyecod

#endif // EYECOD_TESTS_SERVING_TEST_UTIL_H
