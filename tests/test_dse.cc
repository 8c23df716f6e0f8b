/**
 * @file
 * Tests of the design-space explorer (src/dse/) and of the modeled
 * outputs it searches over: a corpus of pipeline, zoo-model and
 * hardware-variant simulations pinned to recorded literals, the
 * typed errors a bad candidate gets on the schedule-only and full
 * simulation paths, the candidate-scaled energy model's paper
 * anchor, and the Pareto
 * search invariants (enumeration accounting, dominance correctness,
 * paper point on the front).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "accel/simulator.h"
#include "dse/search.h"
#include "models/model_zoo.h"

namespace eyecod {
namespace dse {
namespace {

using accel::EnergyModel;
using accel::HwConfig;
using accel::ModelWorkload;
using accel::OrchestrationMode;

std::vector<ModelWorkload>
pipeline()
{
    return buildPipelineWorkload(accel::PipelineWorkloadConfig{});
}

/** One member of the pinned model corpus. */
struct CorpusInput
{
    std::string name;
    std::vector<ModelWorkload> workloads;
    HwConfig hw;
};

/**
 * The corpus: the pipeline at the paper configuration and under the
 * other two orchestrations, each zoo model standalone at its
 * deployment resolution, and off-nominal hardware variants of the
 * pipeline (narrow, wide-short, reduced banking without SWPR, no
 * depth-wise reuse, Act GBs small enough to force feature
 * partitioning, Concurrent on a narrow array).
 */
std::vector<CorpusInput>
modelCorpus()
{
    std::vector<CorpusInput> corpus;
    corpus.push_back({"pipeline/paper-128x8", pipeline(), HwConfig{}});
    HwConfig mode;
    mode.orchestration = OrchestrationMode::TimeMultiplex;
    corpus.push_back({"pipeline/timemux", pipeline(), mode});
    mode.orchestration = OrchestrationMode::Concurrent;
    corpus.push_back({"pipeline/concurrent", pipeline(), mode});

    for (const models::ZooEntry &entry : models::modelZoo()) {
        const nn::Graph graph =
            entry.build(entry.deploy_height, entry.deploy_width, 8);
        corpus.push_back({"zoo/" + entry.name,
                          {accel::workloadFromGraph(graph, 1)},
                          HwConfig{}});
    }

    HwConfig hw;
    hw.mac_lanes = 64;
    corpus.push_back({"hw/narrow-64x8", pipeline(), hw});
    hw = HwConfig{};
    hw.mac_lanes = 256;
    hw.macs_per_lane = 4;
    corpus.push_back({"hw/wide-256x4", pipeline(), hw});
    hw = HwConfig{};
    hw.act_gb_banks = 2;
    hw.swpr_input_buffer = false;
    corpus.push_back({"hw/banks-2-no-swpr", pipeline(), hw});
    hw = HwConfig{};
    hw.depthwise_optimization = false;
    corpus.push_back({"hw/no-depthwise-opt", pipeline(), hw});
    hw = HwConfig{};
    hw.act_gb_bytes = 128 * 1024;
    corpus.push_back({"hw/act-gb-128k-partitioned", pipeline(), hw});
    hw = HwConfig{};
    hw.mac_lanes = 64;
    hw.orchestration = OrchestrationMode::Concurrent;
    corpus.push_back({"hw/concurrent-64x8", pipeline(), hw});
    return corpus;
}

/** Recorded simulateChecked outputs of one corpus member. */
struct PinnedOutputs
{
    const char *name;
    long long frame_cycles;
    long long peak_frame_cycles; ///< schedule.peak_frame_cycles
    int partition_factor;
    long long partition_overhead_cycles;
    double energy_per_frame_j;
    double utilization;
};

// Exact values, each simulated under energyModelFor(hw); the doubles
// are hex-float literals, so a changed last bit fails the test.
const PinnedOutputs kPinned[] = {
    {"pipeline/paper-128x8", 327391, 327136, 4, 255,
     0x1.361422a170732p-12, 0x1.974937a18f7a4p-1},
    {"pipeline/timemux", 354408, 603616, 4, 255,
     0x1.41f245066dc1cp-12, 0x1.783cf06a3c162p-1},
    {"pipeline/concurrent", 344236, 343981, 4, 255,
     0x1.3d7a669e835ap-12, 0x1.835b0e58d4a1cp-1},
    {"zoo/ritnet", 5081892, 4954272, 16, 127620,
     0x1.ada622cb1994cp-9, 0x1.8d586e134600fp-1},
    {"zoo/unet", 4540432, 4497984, 8, 42448,
     0x1.8a5c2c43c54b3p-9, 0x1.a43df9b56943p-1},
    {"zoo/fbnet", 196064, 196064, 1, 0,
     0x1.8c744fb9dcb3cp-13, 0x1.1e514eed3d60dp-1},
    {"zoo/resnet18", 700240, 700240, 1, 0,
     0x1.5fc12471ad1edp-11, 0x1.7b381d0f57d14p-1},
    {"zoo/mobilenetv2", 159030, 159030, 1, 0,
     0x1.2a3832f12f82ep-13, 0x1.194fbb3b289d4p-1},
    {"hw/narrow-64x8", 586045, 585790, 4, 255,
     0x1.4ab098cf5ddcp-12, 0x1.c70e72236e55fp-1},
    {"hw/wide-256x4", 318831, 318576, 4, 255,
     0x1.64eb07326cfc2p-12, 0x1.a23889c39a0cdp-1},
    {"hw/banks-2-no-swpr", 361417, 360907, 4, 510,
     0x1.412f2b32dbe26p-12, 0x1.70f10dd4d83edp-1},
    {"hw/no-depthwise-opt", 399681, 399426, 4, 255,
     0x1.59789dad085eap-12, 0x1.4d9ed8ab0c10cp-1},
    {"hw/act-gb-128k-partitioned", 334661, 327136, 16, 7525,
     0x1.38b4ad02baf21p-12, 0x1.8e7036e49e561p-1},
    {"hw/concurrent-64x8", 626948, 626693, 4, 255,
     0x1.562a707e5f092p-12, 0x1.a95e2dbc65b74p-1},
};

TEST(ModelCorpus, OutputsArePinned)
{
    const std::vector<CorpusInput> corpus = modelCorpus();
    ASSERT_EQ(corpus.size(), std::size(kPinned));
    for (size_t i = 0; i < corpus.size(); ++i) {
        const CorpusInput &in = corpus[i];
        const PinnedOutputs &want = kPinned[i];
        SCOPED_TRACE(in.name);
        ASSERT_EQ(in.name, want.name);
        const auto sim = simulateChecked(in.workloads, in.hw,
                                         energyModelFor(in.hw));
        ASSERT_TRUE(sim.ok()) << sim.status().toString();
        const accel::PerfReport &r = sim.value();
        EXPECT_EQ(r.frame_cycles, want.frame_cycles);
        EXPECT_EQ(r.schedule.peak_frame_cycles, want.peak_frame_cycles);
        EXPECT_EQ(r.partition_factor, want.partition_factor);
        EXPECT_EQ(r.partition_overhead_cycles,
                  want.partition_overhead_cycles);
        EXPECT_EQ(r.energy_per_frame_j, want.energy_per_frame_j);
        EXPECT_EQ(r.utilization, want.utilization);
        EXPECT_GT(r.frame_cycles, 0);
        EXPECT_GT(r.energy_per_frame_j, 0.0);
        // Starved Act GBs must force feature partitioning, and the
        // stripes must cost halo re-read cycles.
        if (in.name == "hw/act-gb-128k-partitioned") {
            EXPECT_GT(r.partition_factor, 1);
            EXPECT_GT(r.partition_overhead_cycles, 0);
        }
    }
}

// A candidate's estimate is simulateChecked under energyModelFor(hw);
// the schedule-only path the tier-2 billing reads
// (scheduleFrameChecked) must refuse a bad candidate with the same
// typed error.
TEST(Estimator, SharesTheSimulatorsTypedErrorContract)
{
    HwConfig broken;
    broken.mac_lanes = 0;
    EXPECT_EQ(accel::scheduleFrameChecked(pipeline(), broken)
                  .status()
                  .code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(simulateChecked(pipeline(), broken, energyModelFor(broken))
                  .status()
                  .code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(accel::scheduleFrameChecked({}, HwConfig{}).status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(simulateChecked({}, HwConfig{}, energyModelFor(HwConfig{}))
                  .status()
                  .code(),
              ErrorCode::InvalidArgument);

    // Watchdog parity: a budget the frame cannot fit is the same
    // ScheduleTimeout on both paths.
    HwConfig strangled;
    strangled.watchdog_cycle_budget = 1;
    EXPECT_EQ(accel::scheduleFrameChecked(pipeline(), strangled)
                  .status()
                  .code(),
              ErrorCode::ScheduleTimeout);
    EXPECT_EQ(simulateChecked(pipeline(), strangled,
                              energyModelFor(strangled))
                  .status()
                  .code(),
              ErrorCode::ScheduleTimeout);
}

TEST(EnergyModelFor, PaperAnchorReproducesTheDefaultBitwise)
{
    const EnergyModel scaled = energyModelFor(HwConfig{});
    const EnergyModel ref;
    EXPECT_EQ(scaled.mac_pj, ref.mac_pj);
    EXPECT_EQ(scaled.buf_pj_per_byte, ref.buf_pj_per_byte);
    EXPECT_EQ(scaled.act_gb_pj_per_byte, ref.act_gb_pj_per_byte);
    EXPECT_EQ(scaled.weight_gb_pj_per_byte,
              ref.weight_gb_pj_per_byte);
    EXPECT_EQ(scaled.dram_pj_per_byte, ref.dram_pj_per_byte);
    EXPECT_EQ(scaled.leakage_w, ref.leakage_w);
    EXPECT_EQ(scaled.clock_tree_w, ref.clock_tree_w);
    EXPECT_EQ(scaled.clock_hz, ref.clock_hz);
    EXPECT_EQ(scaled.ecc_correct_pj, ref.ecc_correct_pj);
    EXPECT_EQ(scaled.ecc_retry_pj, ref.ecc_retry_pj);
}

TEST(EnergyModelFor, StaticPowerTracksProvisioning)
{
    const EnergyModel paper = energyModelFor(HwConfig{});

    HwConfig wide;
    wide.mac_lanes = 256;
    EXPECT_GT(energyModelFor(wide).leakage_w, paper.leakage_w);
    EXPECT_GT(energyModelFor(wide).clock_tree_w,
              paper.clock_tree_w);

    HwConfig small;
    small.act_gb_bytes = 128 * 1024;
    EXPECT_LT(energyModelFor(small).leakage_w, paper.leakage_w);

    HwConfig banked;
    banked.act_gb_banks = 8;
    EXPECT_GT(energyModelFor(banked).leakage_w, paper.leakage_w);
}

TEST(Search, DominanceIsAStrictPartialOrder)
{
    DesignPoint a, b;
    a.perf.fps = 100.0;
    a.perf.energy_per_frame_j = 1.0;
    b = a;
    EXPECT_FALSE(dominates(a, a));
    EXPECT_FALSE(dominates(a, b)); // Equal on every objective.

    b.perf.energy_per_frame_j = 2.0;
    EXPECT_TRUE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));

    // Trade-off: b wins FPS, loses energy — incomparable.
    b.perf.fps = 200.0;
    EXPECT_FALSE(dominates(a, b));
    EXPECT_FALSE(dominates(b, a));
}

TEST(Search, DefaultSweepInvariants)
{
    const auto r = searchParetoFront(SearchSpace::defaultSpace());
    ASSERT_TRUE(r.ok()) << r.status().toString();
    const SearchResult &res = r.value();

    // Enumeration accounting closes over the lattice.
    EXPECT_GT(res.lattice_size, 0);
    EXPECT_EQ(res.evaluated + res.pruned_infeasible +
                  res.pruned_monotone,
              res.lattice_size);
    EXPECT_EQ(res.evaluated, (long long)res.points.size());

    // The paper's Tab. 1 point is swept and lands on the front.
    ASSERT_GE(res.paper_index, 0);
    ASSERT_LT(size_t(res.paper_index), res.points.size());
    EXPECT_TRUE(res.points[size_t(res.paper_index)].is_paper);
    EXPECT_TRUE(res.paper_on_front);
    EXPECT_TRUE(res.points[size_t(res.paper_index)].on_front);

    // Front membership is exactly non-dominance, and the front is
    // sorted FPS-descending.
    ASSERT_FALSE(res.front.empty());
    for (size_t i = 1; i < res.front.size(); ++i)
        EXPECT_GE(res.points[res.front[i - 1]].perf.fps,
                  res.points[res.front[i]].perf.fps);
    for (size_t i = 0; i < res.points.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < res.points.size() && !dominated; ++j)
            dominated = dominates(res.points[j], res.points[i]);
        EXPECT_EQ(res.points[i].on_front, !dominated) << i;
    }

    // Every evaluated point is feasible by construction.
    for (const DesignPoint &p : res.points) {
        EXPECT_TRUE(validateHwConfig(p.hw).isOk());
        EXPECT_TRUE(p.perf.act_mem_fits);
        EXPECT_GT(p.perf.fps, 0.0);
        EXPECT_GT(p.perf.energy_per_frame_j, 0.0);
        EXPECT_GT(p.hw.totalSramBytes(), 0);
    }
}

TEST(Search, JsonCarriesCountersAndFront)
{
    const auto r = searchParetoFront(SearchSpace::defaultSpace());
    ASSERT_TRUE(r.ok());
    const std::string json = searchResultJson(r.value());
    EXPECT_NE(json.find("\"lattice_size\""), std::string::npos);
    EXPECT_NE(json.find("\"paper_on_front\""), std::string::npos);
    EXPECT_NE(json.find("\"points\""), std::string::npos);
    EXPECT_NE(json.find("\"on_front\""), std::string::npos);
    EXPECT_NE(json.find("\"front_size\""), std::string::npos);
    // Deterministic serialization: byte-identical across calls.
    EXPECT_EQ(json, searchResultJson(r.value()));
}

} // namespace
} // namespace dse
} // namespace eyecod
