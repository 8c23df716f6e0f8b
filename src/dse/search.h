/**
 * @file
 * Design-space search: enumerate a bounded lattice of HwConfig
 * candidates for the EyeCoD pipeline, evaluate each with the
 * simulator's closed forms (accel::simulateChecked) under a
 * candidate-scaled energy model, and emit the FPS /
 * energy-per-frame / SRAM-capacity Pareto front.
 *
 * Pruning keeps the sweep honest and cheap:
 *  - validateHwConfig + activation-fit feasibility rejects candidates
 *    the simulator itself would refuse or that cannot hold the
 *    pipeline's resident activations even fully partitioned;
 *  - monotone dominance skips candidates that a cheaper neighbor
 *    provably dominates: any weight buffer above the lattice minimum
 *    (capacity is dead weight — it buys no cycles, only SRAM and
 *    leakage), and any Act-GB capacity above the first one that runs
 *    the pipeline unpartitioned (more capacity cannot reduce cycles
 *    further, only add SRAM and leakage).
 *
 * The paper's Tab. 1 point is a lattice member and, with the shipped
 * default space, lands on the front (gated by bench_dse_pareto).
 */

#ifndef EYECOD_DSE_SEARCH_H
#define EYECOD_DSE_SEARCH_H

#include <string>
#include <vector>

#include "accel/simulator.h"

namespace eyecod {
namespace dse {

/**
 * Candidate-scaled energy model: leakage and clock-tree power grow
 * with the provisioned lane and MAC counts, SRAM capacity, and
 * Act-GB banking of the candidate instead of staying pinned at the
 * paper chip's constants, so the sweep charts genuine provisioning
 * tradeoffs. Anchored so the paper's Tab. 1 configuration
 * reproduces accel::EnergyModel{} exactly (bitwise).
 */
accel::EnergyModel energyModelFor(const accel::HwConfig &hw);

/** The candidate lattice; every axis is swept independently. */
struct SearchSpace
{
    std::vector<int> mac_lanes;
    std::vector<int> macs_per_lane;
    std::vector<long> act_gb_bytes;
    std::vector<int> act_gb_banks;
    std::vector<long> weight_buf_bytes;
    accel::PipelineWorkloadConfig workload;

    /**
     * The shipped default lattice: 3 x 2 x 5 x 3 x 2 = 180 corners
     * spanning quarter-to-double the paper's array and memories, with
     * the Tab. 1 point (128x8, 512 KB Act GBs, 4 banks, 64 KB weight
     * buffers) an interior member.
     */
    static SearchSpace defaultSpace();
};

/** One evaluated candidate. */
struct DesignPoint
{
    accel::HwConfig hw;
    accel::PerfReport perf; ///< Under energyModelFor(hw).
    bool on_front = false;
    bool is_paper = false; ///< Matches the default HwConfig.
};

/** Sweep outcome plus enumeration accounting. */
struct SearchResult
{
    std::vector<DesignPoint> points; ///< Feasible, evaluated.
    std::vector<size_t> front;       ///< Indices, FPS-descending.
    long long lattice_size = 0;
    long long evaluated = 0;
    long long pruned_infeasible = 0; ///< Invalid config / no fit.
    long long pruned_monotone = 0;   ///< Dominated by construction.
    int paper_index = -1; ///< Index into points, -1 if not swept.
    bool paper_on_front = false;
};

/**
 * True when @p a is at least as good as @p b on every objective
 * (FPS up, energy/frame down, hw.totalSramBytes() down) and
 * strictly better on at least one.
 */
bool dominates(const DesignPoint &a, const DesignPoint &b);

/** Sweep @p space and compute the Pareto front. */
[[nodiscard]] Result<SearchResult> searchParetoFront(
    const SearchSpace &space);

/**
 * Serialize a search result as deterministic JSON (one object per
 * point with the hw axes, objectives, and front membership, plus the
 * enumeration counters) for tools/dse and bench_dse_pareto.
 */
std::string searchResultJson(const SearchResult &result);

} // namespace dse
} // namespace eyecod

#endif // EYECOD_DSE_SEARCH_H
