/**
 * @file
 * The zero-steady-state-allocation gate (DESIGN.md section 11).
 *
 * This is the one test binary that links the operator new/delete
 * counting hooks (eyecod_alloc_hooks), so the per-frame tally that
 * Session::serveFrame keeps is a real count here. Lens fleets of
 * 1 / 4 / 16 users on 1 and 4 chips and one small FlatCam fleet are
 * served end to end, and no steady (served, no ROI refresh) frame may
 * have allocated.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/alloc_counter.h"
#include "serving_test_util.h"

namespace eyecod {
namespace serve {
namespace {

/** @p sessions users x 30 frames of @p sys on @p chips chips. */
FleetMetrics
serveFleet(const core::SystemConfig &sys, int sessions, int chips)
{
    ServingConfig cfg = quickServingConfig(chips, 4);
    cfg.system = sys;
    TrafficConfig tc;
    tc.sessions = sessions;
    tc.frames_per_session = 30;
    ServingEngine eng(cfg, servingTestEstimator(),
                      servingTestRenderer());
    return eng.runTrace(makeTraffic(servingTestRenderer(), tc));
}

// Without the hooks every counter reads zero and the gate would pass
// vacuously, so each test first requires them linked in.

TEST(SteadyStateAllocs, LensFleetsAllocateNothingOnSteadyFrames)
{
    ASSERT_TRUE(allocHooksForceLink());
    ASSERT_TRUE(AllocCounter::hooksInstalled());
    for (int chips : {1, 4})
        for (int sessions : {1, 4, 16}) {
            SCOPED_TRACE(std::to_string(sessions) + " sessions on " +
                         std::to_string(chips) + " chips");
            const FleetMetrics f =
                serveFleet(servingTestSystem(), sessions, chips);
            EXPECT_GT(f.steady_frames, 0);
            EXPECT_EQ(f.steady_allocs, 0);
        }
}

TEST(SteadyStateAllocs, FlatCamFleetAllocatesNothingOnSteadyFrames)
{
    ASSERT_TRUE(allocHooksForceLink());
    ASSERT_TRUE(AllocCounter::hooksInstalled());
    const FleetMetrics f = serveFleet(flatcamServingTestSystem(), 4, 1);
    EXPECT_GT(f.steady_frames, 0);
    EXPECT_EQ(f.steady_allocs, 0);
}

} // namespace
} // namespace serve
} // namespace eyecod
