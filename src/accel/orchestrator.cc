#include "accel/orchestrator.h"

#include <algorithm>

#include "common/logging.h"

namespace eyecod {
namespace accel {

namespace {

/** Scale activity counters by 1/period for amortized accounting. */
ActivityCounts
scaleActivity(const ActivityCounts &a, int period)
{
    ActivityCounts s;
    s.mac_ops = a.mac_ops / period;
    s.act_gb_bytes = a.act_gb_bytes / period;
    s.buf_bytes = a.buf_bytes / period;
    s.weight_gb_bytes = a.weight_gb_bytes / period;
    s.dram_bytes = a.dram_bytes / period;
    s.cycles = a.cycles / period;
    return s;
}

/** Append a model's layers to the trace; returns the total cycles. */
long long
appendModelTrace(FrameSchedule &fs, const ModelWorkload &m,
                 const HwConfig &hw, int lanes, long long start)
{
    long long t = start;
    for (const nn::LayerWorkload &w : m.layers) {
        const LayerCost c = costLayer(w, hw, lanes);
        LayerTrace lt;
        lt.model = m.name;
        lt.layer = w.name;
        lt.start_cycle = t;
        lt.cycles = c.totalCycles();
        lt.utilization = double(c.ideal_macs) /
                         (double(std::max(1LL, c.totalCycles())) *
                          double(hw.totalMacs()));
        lt.lanes = c.lanes_used;
        fs.trace.push_back(std::move(lt));
        t += c.totalCycles();
    }
    return t - start;
}

FrameSchedule
scheduleTimeMux(const std::vector<const ModelWorkload *> &per_frame,
                const std::vector<const ModelWorkload *> &periodic,
                const HwConfig &hw)
{
    FrameSchedule fs;
    long long t = 0;
    long long ideal = 0;
    for (const ModelWorkload *m : per_frame) {
        t += appendModelTrace(fs, *m, hw, hw.mac_lanes, t);
        const LayerCost c = costModel(m->layers, hw, hw.mac_lanes);
        fs.activity += c.activity;
        ideal += c.ideal_macs;
    }
    // Time-multiplexing interleaves the periodic model's layers
    // across the window, one chunk per frame; the worst frame
    // additionally carries the periodic model's bottleneck layer
    // (the paper's Challenge #I analysis of RITNet's 3rd / 5th /
    // 42nd / 44th layers).
    long long worst_periodic_layer = 0;
    long long amortized_periodic = 0;
    for (const ModelWorkload *m : periodic) {
        const LayerCost c = costModel(m->layers, hw, hw.mac_lanes);
        for (const nn::LayerWorkload &w : m->layers) {
            worst_periodic_layer = std::max(
                worst_periodic_layer,
                costLayer(w, hw, hw.mac_lanes).totalCycles());
        }
        amortized_periodic += c.totalCycles() / m->period;
        t += c.totalCycles() / m->period;
        fs.activity += scaleActivity(c.activity, m->period);
        ideal += c.ideal_macs / m->period;
        // The periodic model appears in the trace at its amortized
        // share so the timeline sums to the steady-state frame.
        LayerTrace lt;
        lt.model = m->name;
        lt.layer = "(amortized 1/" + std::to_string(m->period) + ")";
        lt.start_cycle = t - c.totalCycles() / m->period;
        lt.cycles = c.totalCycles() / m->period;
        lt.utilization = c.utilization;
        lt.lanes = hw.mac_lanes;
        fs.trace.push_back(std::move(lt));
    }
    fs.frame_cycles = t;
    fs.peak_frame_cycles = std::max(
        t, t - amortized_periodic + worst_periodic_layer);
    fs.utilization = double(ideal) /
                     (double(std::max(1LL, fs.frame_cycles)) *
                      double(hw.totalMacs()));
    return fs;
}

FrameSchedule
scheduleConcurrent(const std::vector<const ModelWorkload *> &per_frame,
                   const std::vector<const ModelWorkload *> &periodic,
                   const HwConfig &hw)
{
    // Find the static lane split minimizing the steady frame time.
    long long best_frame = -1;
    int best_s = 1;
    for (int s = 1; s < hw.mac_lanes; ++s) {
        long long pf = 0;
        for (const ModelWorkload *m : per_frame)
            pf += costModel(m->layers, hw, hw.mac_lanes - s)
                      .totalCycles();
        long long pd = 0;
        for (const ModelWorkload *m : periodic)
            pd += costModel(m->layers, hw, s).totalCycles() /
                  m->period;
        const long long frame = std::max(pf, pd);
        if (best_frame < 0 || frame < best_frame) {
            best_frame = frame;
            best_s = s;
        }
    }

    FrameSchedule fs;
    fs.concurrent_seg_lanes = best_s;
    long long t = 0;
    long long ideal = 0;
    for (const ModelWorkload *m : per_frame) {
        t += appendModelTrace(fs, *m, hw, hw.mac_lanes - best_s, t);
        const LayerCost c =
            costModel(m->layers, hw, hw.mac_lanes - best_s);
        fs.activity += c.activity;
        ideal += c.ideal_macs;
    }
    for (const ModelWorkload *m : periodic) {
        const LayerCost c = costModel(m->layers, hw, best_s);
        fs.activity += scaleActivity(c.activity, m->period);
        ideal += c.ideal_macs / m->period;
    }
    fs.frame_cycles = std::max(t, best_frame);
    fs.peak_frame_cycles = fs.frame_cycles;
    fs.utilization = double(ideal) /
                     (double(std::max(1LL, fs.frame_cycles)) *
                      double(hw.totalMacs()));
    return fs;
}

FrameSchedule
schedulePartial(const std::vector<const ModelWorkload *> &per_frame,
                const std::vector<const ModelWorkload *> &periodic,
                const HwConfig &hw)
{
    FrameSchedule fs;
    const double total_macs = double(hw.totalMacs());

    // Per-frame (gaze-side) timeline at full width, collecting the
    // spare MAC-cycles of every slot below the donation threshold.
    long long t = 0;
    long long ideal = 0;
    double donated = 0.0;
    std::vector<size_t> donor_slots;
    for (const ModelWorkload *m : per_frame) {
        for (const nn::LayerWorkload &w : m->layers) {
            const LayerCost c = costLayer(w, hw, hw.mac_lanes);
            LayerTrace lt;
            lt.model = m->name;
            lt.layer = w.name;
            lt.start_cycle = t;
            lt.cycles = c.totalCycles();
            lt.utilization =
                double(c.ideal_macs) /
                (double(std::max(1LL, c.totalCycles())) * total_macs);
            lt.lanes = c.lanes_used;
            if (lt.utilization < hw.partial_util_threshold &&
                c.totalCycles() > 0) {
                donated += (1.0 - lt.utilization) *
                           double(c.totalCycles()) * total_macs;
                donor_slots.push_back(fs.trace.size());
            }
            fs.trace.push_back(std::move(lt));
            t += c.totalCycles();
            ideal += c.ideal_macs;
        }
        const LayerCost c = costModel(m->layers, hw, hw.mac_lanes);
        fs.activity += c.activity;
    }

    // Periodic (segmentation) demand per frame, in MAC-cycles at the
    // efficiency it achieves when co-running on spare lanes (half
    // array is the representative grant).
    double needed = 0.0;
    long long periodic_ideal = 0;
    for (const ModelWorkload *m : periodic) {
        const int granted = std::max(1, hw.mac_lanes / 2);
        const LayerCost c = costModel(m->layers, hw, granted);
        // Efficiency per *granted* MAC when co-running on spare lanes.
        const double eff =
            double(c.ideal_macs) /
            (double(std::max(1LL, c.totalCycles())) * granted *
             hw.macs_per_lane);
        const double eff_clamped = std::clamp(eff, 0.05, 0.9);
        needed += double(c.ideal_macs) / m->period / eff_clamped;
        periodic_ideal += c.ideal_macs / m->period;
        fs.activity += scaleActivity(c.activity, m->period);
    }

    const double hidden = std::min(donated, needed);
    fs.seg_hidden_fraction = needed > 0.0 ? hidden / needed : 1.0;
    const long long extra =
        (long long)std::ceil((needed - hidden) / total_macs);
    fs.frame_cycles = t + extra;
    fs.peak_frame_cycles = fs.frame_cycles;
    ideal += periodic_ideal;
    fs.utilization = double(ideal) /
                     (double(std::max(1LL, fs.frame_cycles)) *
                      total_macs);

    // Mark donor slots and credit them with the absorbed seg work.
    if (donated > 0.0) {
        for (size_t idx : donor_slots) {
            LayerTrace &lt = fs.trace[idx];
            const double slot_spare =
                (1.0 - lt.utilization) * double(lt.cycles) *
                total_macs;
            const double credit = slot_spare / donated * hidden;
            lt.coscheduled = true;
            lt.utilization = std::min(
                0.97, lt.utilization +
                          credit / (double(lt.cycles) * total_macs));
        }
    }
    return fs;
}

} // namespace

FrameSchedule
scheduleFrame(const std::vector<ModelWorkload> &workloads,
              const HwConfig &hw)
{
    eyecod_assert(!workloads.empty(), "scheduleFrame with no work");
    std::vector<const ModelWorkload *> per_frame;
    std::vector<const ModelWorkload *> periodic;
    for (const ModelWorkload &m : workloads) {
        if (m.period <= 1)
            per_frame.push_back(&m);
        else
            periodic.push_back(&m);
    }
    eyecod_assert(!per_frame.empty(),
                  "pipeline needs at least one per-frame workload");

    switch (hw.orchestration) {
      case OrchestrationMode::TimeMultiplex:
        return scheduleTimeMux(per_frame, periodic, hw);
      case OrchestrationMode::Concurrent:
        return scheduleConcurrent(per_frame, periodic, hw);
      case OrchestrationMode::PartialTimeMultiplex:
        return schedulePartial(per_frame, periodic, hw);
    }
    panic("unknown orchestration mode");
}

Status
validateWorkloads(const std::vector<ModelWorkload> &workloads)
{
    if (workloads.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "no workloads to schedule");
    bool any_per_frame = false;
    for (const ModelWorkload &m : workloads) {
        if (m.period < 1)
            return Status::error(ErrorCode::InvalidArgument,
                                 "workload %s has period %d (< 1)",
                                 m.name.c_str(), m.period);
        if (m.layers.empty())
            return Status::error(ErrorCode::InvalidArgument,
                                 "workload %s has no layers",
                                 m.name.c_str());
        any_per_frame = any_per_frame || m.period == 1;
    }
    if (!any_per_frame)
        return Status::error(ErrorCode::InvalidArgument,
                             "pipeline needs at least one per-frame "
                             "workload");
    return Status::ok();
}

Result<FrameSchedule>
scheduleFrameChecked(const std::vector<ModelWorkload> &workloads,
                     const HwConfig &hw)
{
    Status valid = validateHwConfig(hw);
    if (!valid.isOk())
        return valid;
    valid = validateWorkloads(workloads);
    if (!valid.isOk())
        return valid;

    FrameSchedule fs = scheduleFrame(workloads, hw);
    if (hw.watchdog_cycle_budget > 0 &&
        fs.frame_cycles > hw.watchdog_cycle_budget)
        return Status::error(
            ErrorCode::ScheduleTimeout,
            "frame schedule of %lld cycles exceeds the watchdog "
            "budget of %lld",
            fs.frame_cycles, hw.watchdog_cycle_budget);
    return fs;
}

} // namespace accel
} // namespace eyecod
