/**
 * @file
 * Shared closed-form accelerator formulas. The dataflow cost model,
 * the roofline analysis and the serving timing model all derive
 * their numbers from these helpers, so "peak MACs/cycle" or "cycles
 * at the configured clock" mean the same thing everywhere.
 */

#ifndef EYECOD_ACCEL_ANALYTIC_H
#define EYECOD_ACCEL_ANALYTIC_H

#include "accel/hw_config.h"

namespace eyecod {
namespace accel {

/** ceil division for positive integers. */
constexpr long long
ceilDivPositive(long long a, long long b)
{
    return (a + b - 1) / b;
}

/** Peak MAC throughput of the array, MACs per cycle. */
inline double
peakMacsPerCycle(const HwConfig &hw)
{
    return double(hw.totalMacs());
}

/**
 * Machine-balance intensity: the MACs-per-activation-byte arithmetic
 * intensity at which the compute and bandwidth roofs meet.
 */
inline double
balanceIntensity(const HwConfig &hw)
{
    return peakMacsPerCycle(hw) / hw.actReadBandwidth();
}

/**
 * Aggregate Act-GB bank bandwidth available to data-movement layers
 * (pool / upsample / add), bytes per cycle: every bank of one GB
 * serves one address per cycle.
 */
inline double
bankMoveBandwidth(const HwConfig &hw)
{
    return double(hw.act_gb_banks) * double(hw.act_bank_width_bytes);
}

/** Cycles at the configured clock, in microseconds. */
inline double
cyclesToUs(long long cycles, const HwConfig &hw)
{
    return double(cycles) / hw.clock_hz * 1e6;
}

} // namespace accel
} // namespace eyecod

#endif // EYECOD_ACCEL_ANALYTIC_H
