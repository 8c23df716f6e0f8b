#include "accel/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eyecod {
namespace accel {

namespace {

/** The core analytic model; callers have validated the inputs. */
PerfReport
simulateCore(const std::vector<ModelWorkload> &workloads,
             const HwConfig &hw, const EnergyModel &energy)
{
    PerfReport r;
    r.schedule = scheduleFrame(workloads, hw);
    r.utilization = r.schedule.utilization;
    r.seg_hidden_fraction = r.schedule.seg_hidden_fraction;
    r.active_lanes = hw.mac_lanes;

    // Activation memory: every model must keep its resident set
    // within the two activation GBs; the feature-wise partition is
    // applied per model when enabled. A model forced to partition
    // pays the stripe overhead: halo rows re-read from the Act GB at
    // the read bandwidth (extending the frame) and weights
    // re-streamed through the weight path (energy only — hidden
    // under the double-buffered staging). Both amortize by the
    // model's period, same discipline as the schedule's activity.
    const long long budget =
        (long long)hw.act_gb_bytes * hw.act_gb_count;
    long long resident = 0;
    long long unpart = 0;
    int factor = 1;
    bool fits = true;
    long long extra_act_bytes = 0;
    long long extra_weight_bytes = 0;
    long long overhead_cycles = 0;
    for (const ModelWorkload &m : workloads) {
        unpart = std::max(unpart, peakActivationBytes(m.layers));
        if (hw.feature_partition) {
            const PartitionAnalysis a =
                analyzePartition(m.layers, budget);
            resident = std::max(resident, a.partitioned_bytes);
            factor = std::max(factor, a.partition_factor);
            fits = fits && a.fits;
            if (a.partition_factor > 1) {
                const PartitionOverhead o =
                    partitionOverhead(m.layers, a.partition_factor);
                extra_act_bytes += o.act_reread_bytes / m.period;
                extra_weight_bytes +=
                    o.weight_restream_bytes / m.period;
                overhead_cycles +=
                    (long long)std::ceil(
                        double(o.act_reread_bytes) /
                        hw.actReadBandwidth()) /
                    m.period;
            }
        } else {
            resident = std::max(resident,
                                peakActivationBytes(m.layers));
            fits = fits && resident <= budget;
        }
    }
    r.act_mem_bytes = resident;
    r.act_mem_unpartitioned = unpart;
    r.partition_factor = factor;
    r.act_mem_fits = fits;

    r.partition_overhead_cycles = overhead_cycles;
    r.frame_cycles = r.schedule.frame_cycles + overhead_cycles;
    r.frame_ms = double(r.frame_cycles) / hw.clock_hz * 1e3;
    r.fps = hw.clock_hz / double(std::max(1LL, r.frame_cycles));
    r.fps_peak =
        hw.clock_hz /
        double(std::max(1LL, r.schedule.peak_frame_cycles +
                                 overhead_cycles));
    if (overhead_cycles > 0)
        r.utilization *= double(r.schedule.frame_cycles) /
                         double(std::max(1LL, r.frame_cycles));

    // Energy: amortized per-frame activity over the frame window.
    r.activity = r.schedule.activity;
    r.activity.act_gb_bytes += extra_act_bytes;
    r.activity.weight_gb_bytes += extra_weight_bytes;
    r.activity.buf_bytes += extra_weight_bytes;
    r.activity.cycles = r.frame_cycles;
    r.energy_per_frame_j = energy.energyJoules(r.activity);
    r.power_w = energy.averagePowerWatts(r.activity);
    r.fps_per_watt = r.power_w > 0.0 ? r.fps / r.power_w : 0.0;
    return r;
}

/** Watchdog: a frame beyond the cycle budget is a typed timeout. */
Status
checkWatchdog(const HwConfig &hw, long long frame_cycles)
{
    if (hw.watchdog_cycle_budget > 0 &&
        frame_cycles > hw.watchdog_cycle_budget)
        return Status::error(
            ErrorCode::ScheduleTimeout,
            "frame schedule of %lld cycles exceeds the watchdog "
            "budget of %lld",
            frame_cycles, hw.watchdog_cycle_budget);
    return Status::ok();
}

} // namespace

PerfReport
simulate(const std::vector<ModelWorkload> &workloads,
         const HwConfig &hw, const EnergyModel &energy)
{
    Result<PerfReport> r = simulateChecked(workloads, hw, energy);
    if (!r.ok())
        panic("simulate: %s", r.status().toString().c_str());
    return r.take();
}

Result<PerfReport>
simulateChecked(const std::vector<ModelWorkload> &workloads,
                const HwConfig &hw, const EnergyModel &energy)
{
    Status valid = validateHwConfig(hw);
    if (!valid.isOk())
        return valid;
    valid = validateWorkloads(workloads);
    if (!valid.isOk())
        return valid;

    PerfReport r = simulateCore(workloads, hw, energy);
    const Status watchdog = checkWatchdog(hw, r.frame_cycles);
    if (!watchdog.isOk())
        return watchdog;
    return r;
}

Result<PerfReport>
simulateFaulted(const std::vector<ModelWorkload> &workloads,
                const HwConfig &hw, const EnergyModel &energy,
                const HwFaultInjector &injector, long frame)
{
    Status valid = validateHwConfig(hw);
    if (!valid.isOk())
        return valid;
    valid = validateWorkloads(workloads);
    if (!valid.isOk())
        return valid;

    // Lane retirement: configured + BIST-dead lanes are mapped out
    // and the orchestrator re-partitions every workload across the
    // survivors, so the degraded schedule, utilization, and FPS stay
    // self-consistent.
    const int retired = injector.retiredLaneCount();
    Result<HwConfig> degraded = retireLanes(hw, retired);
    if (!degraded.ok())
        return degraded.status();
    const HwConfig eff = degraded.take();
    if (retired > 0)
        warnLimited("accel-lane-retire",
                    "frame %ld: %d MAC lane(s) retired, "
                    "re-partitioned onto %d survivors",
                    frame, retired, eff.mac_lanes);

    PerfReport r = simulateCore(workloads, eff, energy);
    r.retired_lanes = retired;
    r.active_lanes = eff.mac_lanes;

    // Per-frame transients: stuck lanes (silent wrong-compute),
    // SRAM upsets classified by the SECDED model, orchestrator
    // stalls.
    const FrameHwFaults faults = injector.plan(frame);
    r.stuck_lane_events = int(faults.stuck_lanes.size());
    r.ecc = injector.classify(faults, frame);
    r.injected_stall_cycles = faults.stall_cycles;
    if (r.stuck_lane_events > 0)
        warnLimited("accel-lane-stuck",
                    "frame %ld: %d stuck lane(s) computing silently "
                    "wrong results",
                    frame, r.stuck_lane_events);
    if (r.ecc.detected_uncorrectable > 0)
        warnLimited("accel-ecc-uncorrectable",
                    "frame %ld: %lld detected-uncorrectable SRAM "
                    "word(s), refetch retried",
                    frame, r.ecc.detected_uncorrectable);
    if (r.ecc.silent > 0)
        warnLimited("accel-ecc-silent",
                    "frame %ld: %lld SRAM upset(s) escaped ECC",
                    frame, r.ecc.silent);

    // Fold the ECC correction/retry bubbles and the injected stalls
    // into the frame, then re-derive every cycle-dependent metric.
    const long long overhead =
        r.ecc.overhead_cycles + faults.stall_cycles;
    if (overhead > 0) {
        const long long clean_cycles = r.frame_cycles;
        r.frame_cycles += overhead;
        r.frame_ms = double(r.frame_cycles) / eff.clock_hz * 1e3;
        r.fps = eff.clock_hz / double(std::max(1LL, r.frame_cycles));
        r.fps_peak =
            eff.clock_hz /
            double(std::max(1LL, r.schedule.peak_frame_cycles +
                                     r.partition_overhead_cycles +
                                     overhead));
        r.utilization *= double(clean_cycles) /
                         double(std::max(1LL, r.frame_cycles));
        r.activity.cycles = r.frame_cycles;
    }
    r.ecc_energy_j = energy.eccEventJoules(
        r.ecc.corrected, r.ecc.detected_uncorrectable);
    if (overhead > 0 || r.ecc_energy_j > 0.0) {
        r.energy_per_frame_j =
            energy.energyJoules(r.activity) + r.ecc_energy_j;
        const double t = double(r.activity.cycles) / energy.clock_hz;
        r.power_w = t > 0.0 ? r.energy_per_frame_j / t : 0.0;
        r.fps_per_watt =
            r.power_w > 0.0 ? r.fps / r.power_w : 0.0;
    }

    const Status watchdog = checkWatchdog(hw, r.frame_cycles);
    if (!watchdog.isOk()) {
        warnLimited("accel-watchdog",
                    "frame %ld: %s", frame,
                    watchdog.toString().c_str());
        return watchdog;
    }
    return r;
}

} // namespace accel
} // namespace eyecod
