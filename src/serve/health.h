/**
 * @file
 * Fleet health controller: the four-tier graceful-degradation ladder
 * of ROADMAP item 4, driven by fleet pressure in virtual time.
 *
 * Tiers, in escalation order (each tier includes the ones below it):
 *
 *  - tier 0: healthy — bounded drop-oldest queues only (the engine's
 *    always-on backpressure);
 *  - tier 1: drop-oldest under pressure — no new mechanism engages,
 *    but the fleet is flagged as shedding via backpressure so
 *    operators see the ladder's first rung, not silence;
 *  - tier 2: per-session resolution downgrade — sessions serve at
 *    half linear resolution through the zero-copy
 *    view/resizeBilinearInto path, cutting per-frame service cost;
 *  - tier 3: refresh-rate downgrade — every k-th submitted frame is
 *    shed at admission to the queue (DropReason::RateDowngrade),
 *    trading per-user FPS for fleet survival;
 *  - tier 4: admission reject — no new sessions are admitted until
 *    pressure subsides.
 *
 * The controller's input is *raw* demand pressure — active sessions'
 * nominal load over surviving capacity, combined with queue
 * occupancy — NOT the post-degradation load. Reacting to the load the
 * ladder itself reduced would oscillate: tier 2 halves the cost,
 * pressure halves, tier disengages, cost doubles, pressure doubles.
 * Raw pressure only moves when capacity or population moves, so the
 * ladder is a pure function of the fault/churn schedule and replays
 * bitwise at any scheduler thread count.
 *
 * Hysteresis: a tier engages only after its threshold holds for
 * engage_ticks consecutive ticks, and disengages only after the
 * (lower) exit threshold holds for disengage_ticks — so a chip
 * blinking in and out of service cannot flap the fleet between
 * resolutions every tick.
 */

#ifndef EYECOD_SERVE_HEALTH_H
#define EYECOD_SERVE_HEALTH_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/snapshot.h"

namespace eyecod {
namespace serve {

/** Number of rungs above healthy (tiers 1..4). */
constexpr int kNumDegradationTiers = 4;

/** Human-readable name of a degradation tier (0..4). */
const char *degradationTierName(int tier);

/** Ladder thresholds and hysteresis windows. */
struct HealthControllerConfig
{
    /**
     * Pressure at which tier i+1 engages. Pressure ~ demand /
     * capacity: 1.0 means the fleet is exactly saturated. Must be
     * non-decreasing.
     */
    std::array<double, kNumDegradationTiers> engage_pressure{
        1.00, 1.08, 1.35, 1.60};
    /**
     * Pressure below which tier i+1 disengages; strictly below the
     * engage threshold (the hysteresis band).
     */
    std::array<double, kNumDegradationTiers> disengage_pressure{
        0.90, 0.98, 1.20, 1.45};
    /** Consecutive ticks above threshold before escalating a tier. */
    int engage_ticks = 3;
    /** Consecutive ticks below threshold before de-escalating. */
    int disengage_ticks = 25;
    /**
     * Queue-occupancy weight folded into pressure: pressure =
     * max(utilization, occupancy * occupancy_gain). Deep queues mean
     * the fleet is already behind even if raw utilization looks
     * sustainable (e.g. right after an outage truncated capacity).
     */
    double occupancy_gain = 1.6;
};

/** One tick's fleet load signal (computed by the engine). */
struct FleetSignal
{
    /** Raw demand / surviving capacity (pre-degradation). */
    double utilization = 0.0;
    /** Queued frames / total queue capacity of active sessions. */
    double queue_occupancy = 0.0;
};

/**
 * The tier ladder state machine. One update() per scheduler tick;
 * everything is integer/double arithmetic on the signal, so the
 * trajectory is bitwise deterministic.
 */
class FleetHealthController
{
  public:
    explicit FleetHealthController(
        const HealthControllerConfig &cfg = {});

    /** Feed one tick's signal; returns the (possibly new) tier. */
    int update(const FleetSignal &signal);

    /** Current tier, 0 (healthy) .. 4 (admission reject). */
    int tier() const { return tier_; }

    /** Pressure computed from the last update()'s signal. */
    double lastPressure() const { return last_pressure_; }

    /** Tier changes since construction (escalations + recoveries). */
    long long transitions() const { return transitions_; }

    /** Ticks spent at @p tier (incl. the current update's tick). */
    long long residencyTicks(int tier) const
    {
        return residency_[std::size_t(tier)];
    }

    /** True while tier >= 2: sessions serve at reduced resolution. */
    bool resolutionDowngraded() const { return tier_ >= 2; }

    /** True while tier >= 3: every k-th submit is shed. */
    bool rateDowngraded() const { return tier_ >= 3; }

    /** True while tier >= 4: new sessions are rejected. */
    bool admissionClosed() const { return tier_ >= 4; }

    /** Configuration in use. */
    const HealthControllerConfig &config() const { return cfg_; }

    /**
     * Serialize the ladder position and both hysteresis streaks — a
     * restored controller continues its residency counters and
     * escalation/de-escalation windows exactly where the snapshot
     * left them (a mid-ladder checkpoint must not re-arm hysteresis).
     */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /** Restore ladder state; tier and streaks are range-checked. */
    [[nodiscard]] Status
    restoreSnapshot(snap::SnapshotReader &r)
    {
        fields(*this, r);
        return r.status();
    }

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &c, Ar &ar)
    {
        ar.tag(0x48435431); // "HCT1"
        ar.field(c.tier_);
        ar.check(c.tier_ >= 0 && c.tier_ <= kNumDegradationTiers,
                 "degradation tier out of range");
        ar.field(c.above_ticks_);
        ar.field(c.below_ticks_);
        ar.check(c.above_ticks_ >= 0 && c.below_ticks_ >= 0,
                 "negative hysteresis streak");
        ar.field(c.last_pressure_);
        ar.field(c.transitions_);
        ar.field(c.residency_);
    }

  private:
    // Construction-time config; snapshots carry ladder state only.
    HealthControllerConfig cfg_;
    int tier_ = 0;
    int above_ticks_ = 0; ///< Consecutive ticks above next engage.
    int below_ticks_ = 0; ///< Consecutive ticks below current exit.
    double last_pressure_ = 0.0;
    long long transitions_ = 0;
    std::array<long long, kNumDegradationTiers + 1> residency_{};
};

} // namespace serve
} // namespace eyecod

#endif // EYECOD_SERVE_HEALTH_H
