/**
 * @file
 * Design-space explorer benchmark and gate (DESIGN.md section 14):
 *
 *  1. sweeps the default candidate lattice, computes the
 *     FPS / energy-per-frame / SRAM Pareto front, and gates that the
 *     paper's Tab. 1 design point lies ON the front and that the
 *     enumeration accounting closes (evaluated + pruned ==
 *     lattice);
 *  2. reports the predicted tier-2 resolution billing factor
 *     (serve::resolutionCostFactor) for the paper configuration and
 *     gates that it lies in (0, 1].
 *
 * Results merge into BENCH_dse.json (override the path with the
 * first positional argument); the full front also prints as a
 * table. Exit code is the gate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/perf_json.h"
#include "common/stats.h"
#include "dse/search.h"
#include "serve/virtual_accel.h"

using namespace eyecod;

int
main(int argc, char **argv)
{
    if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
        std::fprintf(stderr, "usage: bench_dse_pareto [out.json]\n");
        return 2;
    }
    const std::string json_path =
        argc > 1 ? argv[1] : "BENCH_dse.json";
    bool ok = true;

    // --- 1. Pareto search over the default lattice ---
    Result<dse::SearchResult> search =
        dse::searchParetoFront(dse::SearchSpace::defaultSpace());
    if (!search.ok()) {
        std::printf("pareto search failed: %s\n",
                    search.status().toString().c_str());
        return 1;
    }
    const dse::SearchResult &sr = search.value();
    const bool accounting_ok =
        sr.evaluated + sr.pruned_infeasible + sr.pruned_monotone ==
        sr.lattice_size;
    TextTable ft({"lanes", "macs", "act KiB", "banks", "FPS",
                  "uJ/frame", "SRAM KiB", "P", "paper"});
    for (size_t idx : sr.front) {
        const dse::DesignPoint &p = sr.points[idx];
        ft.addRow({std::to_string(p.hw.mac_lanes),
                   std::to_string(p.hw.macs_per_lane),
                   std::to_string(p.hw.act_gb_bytes / 1024),
                   std::to_string(p.hw.act_gb_banks),
                   formatDouble(p.perf.fps, 1),
                   formatDouble(p.perf.energy_per_frame_j * 1e6, 1),
                   std::to_string(p.hw.totalSramBytes() / 1024),
                   std::to_string(p.perf.partition_factor),
                   p.is_paper ? "<<<" : ""});
    }
    std::printf("=== Pareto front (FPS up / energy down / SRAM "
                "down), lattice %lld -> evaluated %lld "
                "(pruned: %lld infeasible, %lld monotone) ===\n%s\n",
                sr.lattice_size, sr.evaluated, sr.pruned_infeasible,
                sr.pruned_monotone, ft.render().c_str());
    std::printf("paper point on front: %s, accounting closes: %s\n\n",
                sr.paper_on_front ? "yes" : "NO",
                accounting_ok ? "yes" : "NO");
    ok = ok && sr.paper_on_front && accounting_ok &&
         !sr.front.empty();

    PerfJson::update(json_path, "search", "lattice_size",
                     double(sr.lattice_size));
    PerfJson::update(json_path, "search", "evaluated",
                     double(sr.evaluated));
    PerfJson::update(json_path, "search", "pruned_infeasible",
                     double(sr.pruned_infeasible));
    PerfJson::update(json_path, "search", "pruned_monotone",
                     double(sr.pruned_monotone));
    PerfJson::update(json_path, "search", "front_size",
                     double(sr.front.size()));
    PerfJson::update(json_path, "search", "paper_on_front",
                     sr.paper_on_front ? 1.0 : 0.0);
    if (sr.paper_index >= 0) {
        const dse::DesignPoint &p =
            sr.points[size_t(sr.paper_index)];
        PerfJson::update(json_path, "paper_point", "fps", p.perf.fps);
        PerfJson::update(json_path, "paper_point",
                         "energy_per_frame_uj",
                         p.perf.energy_per_frame_j * 1e6);
        PerfJson::update(json_path, "paper_point", "sram_kib",
                         double(p.hw.totalSramBytes() / 1024));
        PerfJson::update(json_path, "paper_point",
                         "partition_factor",
                         double(p.perf.partition_factor));
    }
    // One section per front point: the front itself, in the same
    // mergeable JSON the perf-trajectory tooling reads.
    for (size_t rank = 0; rank < sr.front.size(); ++rank) {
        const dse::DesignPoint &p = sr.points[sr.front[rank]];
        char section[32];
        std::snprintf(section, sizeof(section), "front_%02zu", rank);
        PerfJson::update(json_path, section, "mac_lanes",
                         double(p.hw.mac_lanes));
        PerfJson::update(json_path, section, "macs_per_lane",
                         double(p.hw.macs_per_lane));
        PerfJson::update(json_path, section, "act_gb_kib",
                         double(p.hw.act_gb_bytes / 1024));
        PerfJson::update(json_path, section, "act_gb_banks",
                         double(p.hw.act_gb_banks));
        PerfJson::update(json_path, section, "fps", p.perf.fps);
        PerfJson::update(json_path, section, "energy_per_frame_uj",
                         p.perf.energy_per_frame_j * 1e6);
        PerfJson::update(json_path, section, "sram_kib",
                         double(p.hw.totalSramBytes() / 1024));
        PerfJson::update(json_path, section, "is_paper",
                         p.is_paper ? 1.0 : 0.0);
    }

    // --- 2. Predicted tier-2 resolution billing factor ---
    Result<double> res_factor = serve::resolutionCostFactor(
        accel::PipelineWorkloadConfig{}, accel::HwConfig{});
    const double predicted_factor =
        res_factor.ok() ? res_factor.value() : 0.0;
    std::printf("=== Serving cost model ===\npredicted resolution cost "
                "factor %.4f (ServingConfig default 0.6)\n\n",
                predicted_factor);
    ok = ok && res_factor.ok() && predicted_factor > 0.0 &&
         predicted_factor <= 1.0;
    PerfJson::update(json_path, "serve_cost_model",
                     "resolution_cost_factor", predicted_factor);

    std::printf("%s\n", ok ? "ALL DSE GATES PASSED"
                           : "DSE GATE FAILURES (see above)");
    return ok ? 0 : 1;
}
