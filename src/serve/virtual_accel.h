/**
 * @file
 * Virtual accelerator instances for multi-session serving.
 *
 * The cycle-level simulator in src/accel models ONE chip running ONE
 * user's predict-then-focus workload under partial time-multiplexing
 * (Sec. 5.1). Serving M sessions on K < M physical chips
 * time-multiplexes that schedule across users; this module lifts the
 * simulator's per-frame costs into a fleet-level timing model:
 *
 *  - a ServiceModel derived once per configuration from
 *    accel::scheduleFrameChecked(): the steady-state (recon + gaze)
 *    frame cost and the peak refresh-frame cost (the seg-boundary
 *    frame of Fig. 7), converted from cycles to microseconds at the
 *    configured clock;
 *  - a VirtualAccelPool of K chip instances, each a busy-until
 *    horizon in virtual time. A batch of frames dispatched to an
 *    idle chip occupies it for the batch's service time.
 *
 * Cross-session batching amortizes the weight-resident share of a
 * frame: consecutive frames of the *same stage* reuse the weights
 * already staged in the double-buffered weight GB, so a batch of B
 * frames costs (1 - f) * sum(cost) + f * max(cost), where f is the
 * amortizable fraction. f defaults to the weight-traffic share the
 * dataflow model attributes to a steady frame; it is configurable
 * for what-if sweeps.
 *
 * Chips are not assumed healthy forever. A pool can carry a scripted
 * fault schedule — whole-chip outages (with later rejoin) and BIST
 * lane retirements — applied in virtual time. A retired-lane chip
 * stays in the pool with a *degraded* ServiceModel re-derived from
 * accel::retireLanes() + the cycle-level scheduler, so its frames
 * genuinely bill slower; a failed chip leaves the pool until its
 * rejoin event and the engine re-dispatches whatever it was running.
 * Schedules come either scripted or generated from the PR-3
 * accel::HwFaultInjector seeded fault model (makeChipFaultSchedule),
 * keeping serve-time chaos and simulator-time faults on one seed
 * discipline.
 *
 * Everything runs in virtual microseconds — no wall clock — so a
 * serving run is bit-for-bit reproducible at any scheduler thread
 * count.
 */

#ifndef EYECOD_SERVE_VIRTUAL_ACCEL_H
#define EYECOD_SERVE_VIRTUAL_ACCEL_H

#include <optional>
#include <vector>

#include "accel/hw_config.h"
#include "accel/hw_faults.h"
#include "accel/workload.h"
#include "common/snapshot.h"
#include "common/status.h"

namespace eyecod {
namespace serve {

/** Per-frame service costs of one chip, derived from the simulator. */
struct ServiceModel
{
    /** Steady-state frame (reconstruction + gaze), microseconds. */
    double gaze_frame_us = 0.0;
    /** Peak refresh frame (segmentation boundary), microseconds. */
    double seg_frame_us = 0.0;
    /** Amortized frame cost incl. the 1/N segmentation share. */
    double amortized_frame_us = 0.0;
    /** Single-chip steady throughput, frames per second. */
    double chip_fps = 0.0;

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &m, Ar &ar)
    {
        ar.field(m.gaze_frame_us);
        ar.field(m.seg_frame_us);
        ar.field(m.amortized_frame_us);
        ar.field(m.chip_fps);
    }
};

/**
 * Derive the service model for one chip configuration by scheduling
 * the pipeline workloads on the cycle-level orchestrator. Returns
 * typed errors for malformed hardware configurations or workloads
 * (same contract as accel::scheduleFrameChecked).
 */
Result<ServiceModel> deriveServiceModel(
    const accel::PipelineWorkloadConfig &workload,
    const accel::HwConfig &hw);

/**
 * Predicted tier-2 billing factor: the amortized frame cost of the
 * half-resolution pipeline (scene, sensor and segmentation extents
 * halved; the gaze ROI is resolution-independent by construction)
 * over that of the full-resolution pipeline, both from
 * deriveServiceModel(), clamped to (0, 1]. A caller that wants the
 * prediction instead of the default assigns it to
 * ServingConfig::resolution_cost_factor.
 */
[[nodiscard]] Result<double> resolutionCostFactor(
    const accel::PipelineWorkloadConfig &workload,
    const accel::HwConfig &hw);

/** What happens to a chip at a scheduled fault event. */
enum class ChipEventKind : int {
    Fail = 0,    ///< Whole-chip outage: leaves the pool.
    Rejoin,      ///< Returns to service (degradations persist).
    RetireLanes, ///< BIST maps out MAC lanes; chip serves degraded.
};

/** One scheduled chip lifecycle event, in virtual time. */
struct ChipFaultEvent
{
    long long at_us = 0; ///< Virtual time the event takes effect.
    int chip = 0;        ///< Target chip index.
    ChipEventKind kind = ChipEventKind::Fail;
    int lanes = 0;       ///< RetireLanes only: lanes mapped out.
};

/**
 * Chaos-schedule generator config layered on the PR-3 hardware fault
 * model: dead_lane_rate drives BIST lane retirements, stall_rate
 * drives whole-chip outage windows. Each chip derives its own
 * injector seed from (seed, chip), so per-chip schedules are
 * independent and the whole schedule is a pure function of the seed.
 */
struct ChaosScheduleConfig
{
    /** Fault rates + master seed (accel::HwFaultConfig semantics). */
    accel::HwFaultConfig hw_faults;
    /** Generate events in [0, horizon_us). */
    long long horizon_us = 0;
    /** Outage-draw granularity: one stall_rate draw per epoch. */
    long long epoch_us = 50000;
    /** Whole-chip outage duration before the rejoin event. */
    long long outage_us = 100000;
    /** When BIST detection lands the lane-retirement event. */
    long long bist_detect_us = 40000;
};

/**
 * Generate a deterministic chip fault schedule for @p chips chips of
 * configuration @p hw, sorted by (at_us, chip, kind). An all-zero
 * rate config yields an empty schedule.
 */
std::vector<ChipFaultEvent> makeChipFaultSchedule(
    const ChaosScheduleConfig &cfg, const accel::HwConfig &hw,
    int chips);

/**
 * K virtual chip instances tracked as busy-until horizons in virtual
 * time, with batched-dispatch cost accounting and scheduled
 * fail/rejoin/retire-lanes lifecycle events.
 */
class VirtualAccelPool
{
  public:
    /**
     * @param chips number of virtual accelerator instances (>= 1).
     * @param model per-frame service costs.
     * @param batch_amortized_fraction share of a frame's cost
     *        amortized across a batch (weight staging); in [0, 1).
     */
    VirtualAccelPool(int chips, const ServiceModel &model,
                     double batch_amortized_fraction);

    /** Number of virtual chips (alive or not). */
    int chips() const { return int(state_.size()); }

    /** Baseline (healthy-chip) service model. */
    const ServiceModel &model() const { return model_; }

    /**
     * Attach the workload and hardware a lane retirement re-derives
     * its degraded model from. A pool must have them before its
     * first RetireLanes event (asserted).
     */
    void configureHardware(
        const accel::PipelineWorkloadConfig &workload,
        const accel::HwConfig &hw);

    /** Install the chip fault schedule (re-sorted deterministically).
     *  Must be called before any event time has been passed. */
    void setFaultSchedule(std::vector<ChipFaultEvent> events);

    /** Chips affected by one applyEventsUpTo() sweep. */
    struct EventOutcome
    {
        std::vector<int> failed;       ///< Chips that went down.
        std::vector<int> rejoined;     ///< Chips back in service.
        std::vector<int> lane_retired; ///< Chips now degraded.
        long long lanes_retired = 0;   ///< Total lanes mapped out.
    };

    /**
     * Apply every scheduled event with at_us <= @p now_us, in
     * schedule order. A failing chip's busy horizon is truncated to
     * the event time (its in-flight work is the caller's to
     * re-dispatch) and the unserved remainder is refunded from the
     * busy accounting. A chip whose lane retirement leaves no usable
     * lane fails instead of degrading.
     */
    EventOutcome applyEventsUpTo(long long now_us);

    /** True when any scheduled event is still in the future. */
    bool hasPendingEvents() const
    {
        return next_event_ < schedule_.size();
    }

    /** True when @p chip is in service. */
    bool alive(int chip) const
    {
        return state_[size_t(chip)].alive;
    }

    /** Chips currently in service. */
    int aliveChips() const;

    /** True when at least one chip is in service. */
    bool anyAlive() const { return aliveChips() > 0; }

    /** Lanes mapped out on @p chip so far. */
    int retiredLanes(int chip) const
    {
        return state_[size_t(chip)].retired_lanes;
    }

    /** Service model of @p chip (degraded once lanes retired). */
    const ServiceModel &chipModel(int chip) const
    {
        return state_[size_t(chip)].model;
    }

    /**
     * Fleet capacity in healthy-chip units: each alive chip
     * contributes baseline_amortized / its_amortized (1.0 when
     * healthy, less once degraded). 0 when every chip is down.
     */
    double effectiveCapacity() const;

    /**
     * Service time of a batch with the given per-frame costs,
     * microseconds: (1 - f) * sum + f * max.
     */
    double batchServiceUs(const std::vector<double> &costs_us) const;

    /**
     * Occupy @p chip from @p now_us for @p service_us. The chip must
     * be alive and idle at @p now_us. Returns the completion
     * timestamp.
     */
    long long dispatch(int chip, long long now_us, double service_us);

    /** Busy horizon of @p chip. */
    long long busyUntil(int chip) const
    {
        return state_[size_t(chip)].busy_until_us;
    }

    /** True when every alive chip is idle at @p now_us. */
    bool allIdle(long long now_us) const;

    /** Total busy microseconds accumulated across all chips (time a
     *  failed chip never served is refunded). */
    double totalBusyUs() const { return total_busy_us_; }

    /**
     * Serialize chip lifecycle state: per-chip liveness/usability,
     * retired lanes, busy horizon, and (possibly degraded) service
     * model, plus the busy accounting and the fault-schedule cursor.
     * The schedule itself is configuration (installed via
     * setFaultSchedule); only its length rides along for validation.
     */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /**
     * Restore into a pool built with the same chip count and fault
     * schedule. The cursor re-enters mid-schedule: events already
     * applied before the snapshot are never replayed, pending ones
     * still fire. Typed errors on any mismatch.
     */
    [[nodiscard]] Status
    restoreSnapshot(snap::SnapshotReader &r)
    {
        fields(*this, r);
        return r.status();
    }

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &p, Ar &ar)
    {
        ar.tag(0x41504c31); // "APL1"
        ar.expect(uint64_t(p.state_.size()));
        for (auto &chip : p.state_)
            ar.field(chip);
        ar.field(p.total_busy_us_);
        ar.expect(uint64_t(p.schedule_.size()));
        ar.field(snap::wire<uint64_t>(p.next_event_));
        ar.check(p.next_event_ <= p.schedule_.size(),
                 "schedule cursor past the last event");
    }

  private:
    struct ChipState
    {
        bool alive = true;
        bool usable = true; ///< False once retirement leaves no lane.
        int retired_lanes = 0;
        long long busy_until_us = 0;
        ServiceModel model; ///< Degraded once lanes retire.

        template <class Self, class Ar>
        static void
        fields(Self &c, Ar &ar)
        {
            ar.field(c.alive);
            ar.field(c.usable);
            ar.field(c.retired_lanes);
            ar.check(c.retired_lanes >= 0, "negative retired-lane count");
            ar.field(c.busy_until_us);
            ar.field(c.model);
        }
    };

    /**
     * Model of a chip with @p retired lanes mapped out, derived anew
     * on each call; nullopt when no usable lane survives.
     */
    std::optional<ServiceModel> degradedModel(int retired) const;

    // Snapshots carry the chip states, the busy total and the
    // schedule cursor. The rest is configuration (the schedule itself
    // only travels as its length, for validation), re-established by
    // configureHardware() on rebuild.
    ServiceModel model_;
    double batch_fraction_;
    std::vector<ChipState> state_;
    double total_busy_us_ = 0.0;

    std::vector<ChipFaultEvent> schedule_;
    size_t next_event_ = 0;

    bool have_hardware_ = false;
    accel::PipelineWorkloadConfig workload_;
    accel::HwConfig hw_;
};

} // namespace serve
} // namespace eyecod

#endif // EYECOD_SERVE_VIRTUAL_ACCEL_H
