/**
 * @file
 * Orchestrator schedule invariants: per-frame trace slots never
 * overlap, cycle totals are self-consistent with the frame window,
 * repeated scheduling is deterministic, and the checked entry
 * surfaces typed errors and watchdog trips.
 */

#include <gtest/gtest.h>

#include "accel/orchestrator.h"
#include "accel/simulator.h"

namespace eyecod {
namespace accel {
namespace {

std::vector<ModelWorkload>
pipeline()
{
    return buildPipelineWorkload(PipelineWorkloadConfig{});
}

std::vector<OrchestrationMode>
allModes()
{
    return {OrchestrationMode::TimeMultiplex,
            OrchestrationMode::Concurrent,
            OrchestrationMode::PartialTimeMultiplex};
}

TEST(ScheduleInvariants, TraceSlotsNeverOverlap)
{
    for (OrchestrationMode mode : allModes()) {
        HwConfig hw;
        hw.orchestration = mode;
        const FrameSchedule fs = scheduleFrame(pipeline(), hw);
        ASSERT_FALSE(fs.trace.empty());
        long long cursor = 0;
        for (const LayerTrace &lt : fs.trace) {
            EXPECT_GE(lt.start_cycle, cursor)
                << lt.model << "/" << lt.layer;
            EXPECT_GE(lt.cycles, 0);
            cursor = lt.start_cycle + lt.cycles;
        }
        EXPECT_LE(cursor, fs.frame_cycles);
    }
}

TEST(ScheduleInvariants, CycleTotalsSumToTheFrame)
{
    // Time-multiplexing runs everything sequentially, so the trace
    // (including the amortized periodic share) tiles the frame
    // exactly.
    HwConfig hw;
    hw.orchestration = OrchestrationMode::TimeMultiplex;
    const FrameSchedule fs = scheduleFrame(pipeline(), hw);
    long long total = 0;
    for (const LayerTrace &lt : fs.trace)
        total += lt.cycles;
    EXPECT_EQ(total, fs.frame_cycles);
}

TEST(ScheduleInvariants, BoundedUtilizationAndLanes)
{
    for (OrchestrationMode mode : allModes()) {
        HwConfig hw;
        hw.orchestration = mode;
        const FrameSchedule fs = scheduleFrame(pipeline(), hw);
        EXPECT_GT(fs.frame_cycles, 0);
        EXPECT_GE(fs.peak_frame_cycles, fs.frame_cycles);
        EXPECT_GT(fs.utilization, 0.0);
        EXPECT_LE(fs.utilization, 1.0);
        for (const LayerTrace &lt : fs.trace) {
            EXPECT_GE(lt.utilization, 0.0);
            EXPECT_LE(lt.utilization, 1.0);
            EXPECT_GE(lt.lanes, 0);
            EXPECT_LE(lt.lanes, hw.mac_lanes);
        }
    }
}

TEST(ScheduleInvariants, RepeatedSchedulingIsDeterministic)
{
    for (OrchestrationMode mode : allModes()) {
        HwConfig hw;
        hw.orchestration = mode;
        const FrameSchedule a = scheduleFrame(pipeline(), hw);
        const FrameSchedule b = scheduleFrame(pipeline(), hw);
        EXPECT_EQ(a.frame_cycles, b.frame_cycles);
        EXPECT_EQ(a.peak_frame_cycles, b.peak_frame_cycles);
        EXPECT_EQ(a.utilization, b.utilization);
        EXPECT_EQ(a.seg_hidden_fraction, b.seg_hidden_fraction);
        ASSERT_EQ(a.trace.size(), b.trace.size());
        for (size_t i = 0; i < a.trace.size(); ++i) {
            EXPECT_EQ(a.trace[i].start_cycle,
                      b.trace[i].start_cycle);
            EXPECT_EQ(a.trace[i].cycles, b.trace[i].cycles);
            EXPECT_EQ(a.trace[i].utilization,
                      b.trace[i].utilization);
        }
    }
}

TEST(ScheduleInvariants, RepeatedSimulationIsDeterministic)
{
    const auto w = pipeline();
    const HwConfig hw;
    const EnergyModel energy;
    const PerfReport a = simulate(w, hw, energy);
    const PerfReport b = simulate(w, hw, energy);
    EXPECT_EQ(a.frame_cycles, b.frame_cycles);
    EXPECT_EQ(a.fps, b.fps);
    EXPECT_EQ(a.energy_per_frame_j, b.energy_per_frame_j);
    EXPECT_EQ(a.power_w, b.power_w);
    EXPECT_EQ(a.act_mem_bytes, b.act_mem_bytes);
}

TEST(ScheduleChecked, AcceptsTheDeploymentPipeline)
{
    const auto r = scheduleFrameChecked(pipeline(), HwConfig{});
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r.value().frame_cycles, 0);
}

TEST(ScheduleChecked, RejectsMalformedInputs)
{
    EXPECT_EQ(scheduleFrameChecked({}, HwConfig{}).status().code(),
              ErrorCode::InvalidArgument);

    HwConfig bad;
    bad.mac_lanes = -1;
    EXPECT_EQ(scheduleFrameChecked(pipeline(), bad).status().code(),
              ErrorCode::InvalidArgument);

    // Only periodic workloads: nothing runs per frame.
    auto w = pipeline();
    for (ModelWorkload &m : w)
        m.period = 5;
    EXPECT_EQ(scheduleFrameChecked(w, HwConfig{}).status().code(),
              ErrorCode::InvalidArgument);

    // A per-frame workload with no layers: alone it would schedule a
    // 0-cycle frame, beside the pipeline it would pass unnoticed.
    ModelWorkload empty;
    empty.name = "empty";
    empty.period = 1;
    w = pipeline();
    w.push_back(empty);
    EXPECT_EQ(scheduleFrameChecked(w, HwConfig{}).status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(scheduleFrameChecked({empty}, HwConfig{}).status().code(),
              ErrorCode::InvalidArgument);
}

TEST(ScheduleChecked, WatchdogTripsOnTinyBudget)
{
    HwConfig hw;
    hw.watchdog_cycle_budget = 10;
    const auto r = scheduleFrameChecked(pipeline(), hw);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::ScheduleTimeout);

    // A generous budget passes.
    hw.watchdog_cycle_budget = 1LL << 40;
    EXPECT_TRUE(scheduleFrameChecked(pipeline(), hw).ok());
}

} // namespace
} // namespace accel
} // namespace eyecod
