/**
 * @file
 * Tests of the serving cost model's billing factor (DESIGN.md
 * section 14.3): resolutionCostFactor propagates the typed errors of
 * deriveServiceModel, and the predicted tier-2 resolution billing
 * factor is a sane ratio.
 */

#include <gtest/gtest.h>

#include "serve/virtual_accel.h"

namespace eyecod {
namespace serve {
namespace {

TEST(EstimatorCostModel, PropagatesTypedErrors)
{
    accel::HwConfig broken;
    broken.mac_lanes = -1;
    EXPECT_EQ(deriveServiceModel({}, broken).status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(resolutionCostFactor({}, broken).status().code(),
              ErrorCode::InvalidArgument);
}

TEST(EstimatorCostModel, ResolutionFactorIsAProperDiscount)
{
    const auto factor =
        resolutionCostFactor({}, accel::HwConfig{});
    ASSERT_TRUE(factor.ok());
    // Halving the scene/sensor/segmentation extents must cost less
    // than full resolution, but the gaze stage's share is
    // resolution-independent so the discount is bounded away from
    // the pixel-count ratio (0.25).
    EXPECT_GT(factor.value(), 0.25);
    EXPECT_LT(factor.value(), 1.0);
}

} // namespace
} // namespace serve
} // namespace eyecod
