/**
 * @file
 * Cross-module property and fuzz tests:
 *
 *  - the direct Conv2d loop nest vs the independent im2col+GEMM
 *    reference over randomized shapes;
 *  - randomized graph construction/execution fuzzing;
 *  - conservation properties of the dataflow cost model;
 *  - roofline consistency (achieved <= attainable);
 *  - renderer invariants across a resolution sweep.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "accel/dataflow.h"
#include "accel/roofline.h"
#include "dataset/synthetic_eye.h"
#include "flatcam/imaging.h"
#include "flatcam/reconstruction.h"
#include "nn/basic_layers.h"
#include "nn/graph.h"
#include "nn/reference.h"

namespace eyecod {
namespace {

/** Randomized conv-vs-reference equivalence. */
class ConvReference : public ::testing::TestWithParam<int>
{
};

TEST_P(ConvReference, DirectMatchesIm2col)
{
    Rng rng(uint64_t(GetParam()) * 7919 + 13);
    for (int trial = 0; trial < 4; ++trial) {
        nn::ConvSpec spec;
        spec.in.c = int(rng.uniformInt(1, 6));
        spec.in.h = int(rng.uniformInt(3, 14));
        spec.in.w = int(rng.uniformInt(3, 14));
        spec.kernel = rng.bernoulli(0.3) ? 1
                      : rng.bernoulli(0.5) ? 3 : 5;
        spec.stride = rng.bernoulli(0.3) ? 2 : 1;
        spec.depthwise = rng.bernoulli(0.3);
        spec.out_channels = spec.depthwise
            ? spec.in.c : int(rng.uniformInt(1, 8));
        spec.relu = rng.bernoulli(0.5);
        spec.quant_bits = rng.bernoulli(0.3) ? 8 : 0;
        spec.seed = rng.engine()();

        const nn::Conv2d conv("fuzz", spec);
        nn::Tensor x(spec.in);
        for (float &v : x.data())
            v = float(rng.gaussian());

        const nn::Tensor direct = conv.forward({&x});
        const nn::Tensor ref = nn::referenceConvForward(conv, x);
        ASSERT_EQ(direct.shape(), ref.shape());
        for (size_t i = 0; i < direct.size(); ++i) {
            EXPECT_NEAR(direct.data()[i], ref.data()[i], 1e-3f)
                << "trial " << trial << " idx " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvReference,
                         ::testing::Range(0, 8));

/** Randomized layer-stack fuzzing of the graph executor. */
class GraphFuzz : public ::testing::TestWithParam<int>
{
};

/**
 * "p3"-style node label. Built with += rather than
 * `"p" + std::to_string(d)`: GCC 12 at -O2 trips a spurious
 * -Wrestrict on that operator+ overload (PR105651), which -Werror
 * would promote.
 */
std::string
nodeLabel(char prefix, int d)
{
    std::string label(1, prefix);
    label += std::to_string(d);
    return label;
}

TEST_P(GraphFuzz, RandomStacksExecute)
{
    Rng rng(uint64_t(GetParam()) * 104729 + 7);
    nn::Graph g("fuzz");
    nn::Shape shape{int(rng.uniformInt(1, 4)),
                    int(rng.uniformInt(8, 20)),
                    int(rng.uniformInt(8, 20))};
    int node = g.addInput(shape);
    long long expected_macs = 0;
    const int depth = int(rng.uniformInt(2, 7));
    for (int d = 0; d < depth; ++d) {
        const int pick = int(rng.uniformInt(0, 3));
        if (pick == 0 && shape.h >= 4 && shape.w >= 4) {
            node = g.emplace<nn::Pool>(
                {node}, nodeLabel('p', d), shape,
                nn::PoolMode::Max, 2, 2);
            shape = nn::Shape{shape.c, (shape.h + 1) / 2,
                              (shape.w + 1) / 2};
        } else if (pick == 1) {
            node = g.emplace<nn::Activation>(
                {node}, nodeLabel('a', d), shape,
                nn::ActFn::LeakyRelu);
        } else {
            nn::ConvSpec spec;
            spec.in = shape;
            spec.out_channels = int(rng.uniformInt(1, 8));
            spec.kernel = rng.bernoulli(0.5) ? 3 : 1;
            spec.seed = rng.engine()();
            node = g.emplace<nn::Conv2d>(
                {node}, nodeLabel('c', d), spec);
            expected_macs += (long long)spec.out_channels *
                             shape.h * shape.w * shape.c *
                             spec.kernel * spec.kernel;
            shape.c = spec.out_channels;
        }
    }
    EXPECT_EQ(g.totalMacs(), expected_macs);
    EXPECT_EQ(g.outputShape(), shape);
    nn::Tensor x(g.nodeShape(0), 0.3f);
    const nn::Tensor out = g.forward({x});
    EXPECT_EQ(out.shape(), shape);
    for (float v : out.data())
        EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz, ::testing::Range(0, 10));

TEST(DataflowProperties, ActivityMacsConserved)
{
    // The cost model must account exactly the algorithmic MACs —
    // dataflow choices change cycles, never the arithmetic.
    accel::PipelineWorkloadConfig pc;
    for (const auto &m : accel::buildPipelineWorkload(pc)) {
        for (const bool dw : {false, true}) {
            accel::HwConfig hw;
            hw.depthwise_optimization = dw;
            const accel::LayerCost c =
                accel::costModel(m.layers, hw, hw.mac_lanes);
            EXPECT_EQ(c.ideal_macs, m.totalMacs()) << m.name;
            EXPECT_EQ(c.activity.mac_ops, m.totalMacs()) << m.name;
        }
    }
}

TEST(DataflowProperties, FeatureFlagsNeverChangeTraffic)
{
    // The SWPR buffer changes stall cycles, not the bytes moved.
    accel::PipelineWorkloadConfig pc;
    const auto workloads = accel::buildPipelineWorkload(pc);
    accel::HwConfig with;
    accel::HwConfig without;
    without.swpr_input_buffer = false;
    for (const auto &m : workloads) {
        const auto a =
            accel::costModel(m.layers, with, with.mac_lanes);
        const auto b =
            accel::costModel(m.layers, without, without.mac_lanes);
        EXPECT_EQ(a.activity.act_gb_bytes, b.activity.act_gb_bytes);
        EXPECT_EQ(a.activity.dram_bytes, b.activity.dram_bytes);
        EXPECT_LE(a.stall_cycles, b.stall_cycles);
    }
}

TEST(RooflineProperties, AchievedBelowAttainable)
{
    accel::PipelineWorkloadConfig pc;
    accel::HwConfig hw;
    for (const auto &m : accel::buildPipelineWorkload(pc)) {
        const accel::RooflineSummary s =
            accel::analyzeRoofline(m, hw);
        for (const auto &p : s.points) {
            EXPECT_LE(p.achieved, s.peak_macs_per_cycle * 1.001)
                << m.name << "/" << p.layer;
            EXPECT_LE(p.achieved, p.attainable * 1.01)
                << m.name << "/" << p.layer;
            EXPECT_GE(p.intensity, 0.0);
        }
    }
}

TEST(RooflineProperties, DepthwiseOptimizationLiftsAchieved)
{
    accel::PipelineWorkloadConfig pc;
    const auto gaze = accel::buildPipelineWorkload(pc)[1];
    accel::HwConfig naive;
    naive.depthwise_optimization = false;
    accel::HwConfig opt;
    const auto s_naive = accel::analyzeRoofline(gaze, naive);
    const auto s_opt = accel::analyzeRoofline(gaze, opt);
    double naive_dw = 0.0, opt_dw = 0.0;
    for (size_t i = 0; i < s_naive.points.size(); ++i) {
        if (s_naive.points[i].kind ==
            nn::LayerKind::ConvDepthwise) {
            naive_dw += s_naive.points[i].achieved;
            opt_dw += s_opt.points[i].achieved;
        }
    }
    EXPECT_GT(opt_dw, 2.0 * naive_dw);
}

/** Renderer invariants across resolutions. */
class RendererSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(RendererSweep, GeometryScalesWithResolution)
{
    const int size = GetParam();
    dataset::RenderConfig rc;
    rc.image_size = size;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    const auto s = ren.sample(3);
    // Pupil stays inside the frame and class areas scale ~size^2.
    EXPECT_GT(s.pupil_cy, 0.0);
    EXPECT_LT(s.pupil_cy, double(size));
    long pupil = 0;
    for (uint8_t c : s.mask.labels)
        pupil += c == dataset::kPupil;
    const double fraction =
        double(pupil) / double(size) / double(size);
    EXPECT_GT(fraction, 0.001);
    EXPECT_LT(fraction, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RendererSweep,
                         ::testing::Values(64, 96, 128, 192, 256));

TEST(FailureInjection, WrongMaskBreaksReconstruction)
{
    // Reconstructing with a different device's mask must collapse —
    // the system cannot silently work with a mis-calibrated camera.
    flatcam::MaskConfig mc;
    mc.scene_rows = mc.scene_cols = 32;
    mc.sensor_rows = mc.sensor_cols = 48;
    mc.mls_order = 6;
    const auto mask_a = flatcam::makeSeparableMask(mc);
    mc.seed = 0xdeadbeef;
    mc.mls_order = 7;
    const auto mask_b = flatcam::makeSeparableMask(mc);

    flatcam::SensorNoise nz;
    nz.read_noise = 0.0;
    const flatcam::FlatCamSensor cam(mask_a, nz);
    const flatcam::FlatCamReconstructor right(mask_a, 1e-4);
    const flatcam::FlatCamReconstructor wrong(mask_b, 1e-4);

    dataset::RenderConfig rc;
    rc.image_size = 32;
    const dataset::SyntheticEyeRenderer ren(rc, 2019);
    const auto s = ren.sample(1);
    Image y, x_right, x_wrong;
    ASSERT_TRUE(cam.captureFrameInto(s.image, 0, &y).isOk());
    ASSERT_TRUE(right.reconstructFrameInto(y, &x_right).isOk());
    ASSERT_TRUE(wrong.reconstructFrameInto(y, &x_wrong).isOk());
    EXPECT_GT(imagePsnr(x_right, s.image), 35.0);
    EXPECT_LT(imagePsnr(x_wrong, s.image), 15.0);
}

} // namespace
} // namespace eyecod
