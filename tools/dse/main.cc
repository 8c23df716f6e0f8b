/**
 * @file
 * Design-space explorer CLI (DESIGN.md section 14.4):
 *
 *   dse estimate [--lanes N] [--macs N] [--act-kib N] [--banks N]
 *                [--mode partial|timemux|concurrent]
 *       model the pipeline on one candidate configuration;
 *   dse search [--json]
 *       sweep the default lattice and print the Pareto front
 *       (--json emits the full machine-readable result).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "dse/search.h"

using namespace eyecod;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dse <estimate|search> [options]\n"
        "  estimate [--lanes N] [--macs N] [--act-kib N] "
        "[--banks N]\n"
        "           [--mode partial|timemux|concurrent]\n"
        "  search [--json]\n");
    return 2;
}

/** Parse a positive integer option value; exits on garbage. */
int
intArg(const char *flag, const char *value)
{
    if (value == nullptr) {
        std::fprintf(stderr, "dse: %s needs a value\n", flag);
        std::exit(2);
    }
    const int v = std::atoi(value);
    if (v <= 0) {
        std::fprintf(stderr, "dse: bad %s value '%s'\n", flag,
                     value);
        std::exit(2);
    }
    return v;
}

int
runEstimate(int argc, char **argv)
{
    accel::HwConfig hw;
    for (int i = 0; i < argc; ++i) {
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (std::strcmp(argv[i], "--lanes") == 0)
            hw.mac_lanes = intArg("--lanes", next), ++i;
        else if (std::strcmp(argv[i], "--macs") == 0)
            hw.macs_per_lane = intArg("--macs", next), ++i;
        else if (std::strcmp(argv[i], "--act-kib") == 0)
            hw.act_gb_bytes = intArg("--act-kib", next) * 1024L, ++i;
        else if (std::strcmp(argv[i], "--banks") == 0)
            hw.act_gb_banks = intArg("--banks", next), ++i;
        else if (std::strcmp(argv[i], "--mode") == 0 &&
                 next != nullptr) {
            if (std::strcmp(next, "partial") == 0)
                hw.orchestration =
                    accel::OrchestrationMode::PartialTimeMultiplex;
            else if (std::strcmp(next, "timemux") == 0)
                hw.orchestration =
                    accel::OrchestrationMode::TimeMultiplex;
            else if (std::strcmp(next, "concurrent") == 0)
                hw.orchestration =
                    accel::OrchestrationMode::Concurrent;
            else {
                std::fprintf(stderr, "dse: bad --mode '%s'\n", next);
                return 2;
            }
            ++i;
        } else {
            std::fprintf(stderr, "dse: unknown option '%s'\n",
                         argv[i]);
            return 2;
        }
    }

    Result<accel::PerfReport> perf = accel::simulateChecked(
        accel::buildPipelineWorkload({}), hw, dse::energyModelFor(hw));
    if (!perf.ok()) {
        std::fprintf(stderr, "dse: %s\n",
                     perf.status().toString().c_str());
        return 1;
    }
    const accel::PerfReport &e = perf.value();
    std::printf("config: %d lanes x %d MACs, %ld KiB Act GB x %d "
                "(%d banks)\n",
                hw.mac_lanes, hw.macs_per_lane,
                hw.act_gb_bytes / 1024, hw.act_gb_count,
                hw.act_gb_banks);
    std::printf("frame:  %lld cycles (%lld peak, %lld partition "
                "overhead), %.3f ms\n",
                e.frame_cycles,
                e.schedule.peak_frame_cycles +
                    e.partition_overhead_cycles,
                e.partition_overhead_cycles, e.frame_ms);
    std::printf("rate:   %.1f FPS steady, %.1f FPS peak, "
                "utilization %.3f\n",
                e.fps, e.fps_peak, e.utilization);
    std::printf("memory: %lld B resident activations (P=%d, "
                "fits: %s), %lld B SRAM provisioned\n",
                e.act_mem_bytes, e.partition_factor,
                e.act_mem_fits ? "yes" : "no", hw.totalSramBytes());
    std::printf("energy: %.1f uJ/frame, %.3f W average\n",
                e.energy_per_frame_j * 1e6, e.power_w);
    return 0;
}

int
runSearch(bool json)
{
    Result<dse::SearchResult> search =
        dse::searchParetoFront(dse::SearchSpace::defaultSpace());
    if (!search.ok()) {
        std::fprintf(stderr, "dse: %s\n",
                     search.status().toString().c_str());
        return 1;
    }
    const dse::SearchResult &r = search.value();
    if (json) {
        std::fputs(dse::searchResultJson(r).c_str(), stdout);
        return 0;
    }
    TextTable t({"lanes", "macs", "act KiB", "banks", "FPS",
                 "uJ/frame", "SRAM KiB", "P", "paper"});
    for (size_t idx : r.front) {
        const dse::DesignPoint &p = r.points[idx];
        t.addRow({std::to_string(p.hw.mac_lanes),
                  std::to_string(p.hw.macs_per_lane),
                  std::to_string(p.hw.act_gb_bytes / 1024),
                  std::to_string(p.hw.act_gb_banks),
                  formatDouble(p.perf.fps, 1),
                  formatDouble(p.perf.energy_per_frame_j * 1e6, 1),
                  std::to_string(p.hw.totalSramBytes() / 1024),
                  std::to_string(p.perf.partition_factor),
                  p.is_paper ? "<<<" : ""});
    }
    std::printf("%s\nlattice %lld: evaluated %lld, pruned %lld "
                "infeasible + %lld monotone; front %zu points, "
                "paper on front: %s\n",
                t.render().c_str(), r.lattice_size, r.evaluated,
                r.pruned_infeasible, r.pruned_monotone,
                r.front.size(), r.paper_on_front ? "yes" : "no");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "estimate")
        return runEstimate(argc - 2, argv + 2);
    if (cmd == "search")
        return runSearch(argc > 2 &&
                         std::string(argv[2]) == "--json");
    return usage();
}
