/**
 * @file
 * Workload orchestration between the per-frame (reconstruction +
 * gaze) workloads and the periodic segmentation workload, in the
 * three modes of Sec. 5.1: time-multiplexing, concurrent, and the
 * proposed partial time-multiplexing (Fig. 6).
 */

#ifndef EYECOD_ACCEL_ORCHESTRATOR_H
#define EYECOD_ACCEL_ORCHESTRATOR_H

#include <string>
#include <vector>

#include "accel/dataflow.h"
#include "accel/workload.h"
#include "common/status.h"

namespace eyecod {
namespace accel {

/** One layer's slot in the frame schedule (Fig. 7 trace source). */
struct LayerTrace
{
    std::string model;    ///< Owning model name.
    std::string layer;    ///< Layer name.
    long long start_cycle = 0;
    long long cycles = 0; ///< Including stalls.
    double utilization = 0.0; ///< MAC utilization during the slot.
    int lanes = 0;        ///< Lanes granted.
    bool coscheduled = false; ///< Segmentation ran on spare lanes.
};

/** Schedule of one steady-state frame. */
struct FrameSchedule
{
    long long frame_cycles = 0;  ///< Amortized steady-state frame.
    long long peak_frame_cycles = 0; ///< Worst frame (seg boundary).
    double utilization = 0.0;    ///< MAC utilization incl. seg work.
    double seg_hidden_fraction = 0.0; ///< Seg work absorbed in slack.
    int concurrent_seg_lanes = 0; ///< Static split (Concurrent mode).
    ActivityCounts activity;     ///< Per-frame (amortized) activity.
    std::vector<LayerTrace> trace; ///< Per-frame layer timeline.
};

/**
 * Schedule one steady-state frame of the pipeline workloads.
 *
 * @param workloads per-frame workloads (period == 1) plus periodic
 *        ones (period > 1); see buildPipelineWorkload().
 * @param hw configuration; hw.orchestration selects the mode.
 */
FrameSchedule scheduleFrame(const std::vector<ModelWorkload> &workloads,
                            const HwConfig &hw);

/**
 * Typed validation of a workload set, shared by every checked entry
 * (scheduleFrameChecked, simulateChecked, simulateFaulted): the set
 * is non-empty, every workload has a period >= 1 and at least one
 * layer, and at least one workload runs every frame.
 */
[[nodiscard]] Status validateWorkloads(
    const std::vector<ModelWorkload> &workloads);

/**
 * Checked scheduling entry: returns typed Status errors instead of
 * panicking on malformed inputs (invalid HwConfig, a workload set
 * validateWorkloads rejects), and ScheduleTimeout when the frame
 * exceeds hw.watchdog_cycle_budget.
 */
[[nodiscard]] Result<FrameSchedule> scheduleFrameChecked(
    const std::vector<ModelWorkload> &workloads, const HwConfig &hw);

} // namespace accel
} // namespace eyecod

#endif // EYECOD_ACCEL_ORCHESTRATOR_H
