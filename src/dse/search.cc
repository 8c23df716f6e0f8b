#include "dse/search.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "accel/partition.h"

namespace eyecod {
namespace dse {

namespace {

/** Per-Act-GB-capacity feasibility, compute-dimension independent. */
struct CapacityFit
{
    long act_gb_bytes = 0;
    bool fits = false;
    int partition_factor = 1;
};

/**
 * The activation-fit of a capacity depends only on the workloads and
 * the total Act-GB budget, never on the compute dimensions — analyze
 * each capacity once up front instead of once per lattice corner.
 */
std::vector<CapacityFit>
analyzeCapacities(const std::vector<accel::ModelWorkload> &workloads,
                  const SearchSpace &space)
{
    std::vector<CapacityFit> fits;
    const accel::HwConfig ref;
    for (long bytes : space.act_gb_bytes) {
        CapacityFit f;
        f.act_gb_bytes = bytes;
        const long long budget = (long long)bytes * ref.act_gb_count;
        f.fits = true;
        for (const accel::ModelWorkload &m : workloads) {
            const accel::PartitionAnalysis a =
                accel::analyzePartition(m.layers, budget);
            f.fits = f.fits && a.fits;
            f.partition_factor =
                std::max(f.partition_factor, a.partition_factor);
        }
        fits.push_back(f);
    }
    std::sort(fits.begin(), fits.end(),
              [](const CapacityFit &a, const CapacityFit &b) {
                  return a.act_gb_bytes < b.act_gb_bytes;
              });
    return fits;
}

bool
isPaperConfig(const accel::HwConfig &hw)
{
    const accel::HwConfig ref;
    return hw.mac_lanes == ref.mac_lanes &&
           hw.macs_per_lane == ref.macs_per_lane &&
           hw.act_gb_bytes == ref.act_gb_bytes &&
           hw.act_gb_banks == ref.act_gb_banks &&
           hw.weight_buf_bytes == ref.weight_buf_bytes;
}

void appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

} // namespace

accel::EnergyModel
energyModelFor(const accel::HwConfig &hw)
{
    // Reference point: the paper's Tab. 1 chip. At exactly that
    // configuration every ratio below is 1.0 and the returned model
    // is field-for-field identical to EnergyModel{}.
    const accel::HwConfig ref;
    accel::EnergyModel m;
    m.clock_hz = hw.clock_hz;
    // The array's static cost splits between the lanes (row FIFO,
    // address generation, broadcast leaf per lane) and the MACs
    // themselves, half and half at the reference shape.
    const double lane_ratio =
        double(hw.mac_lanes) / double(ref.mac_lanes);
    const double mac_ratio =
        double(hw.totalMacs()) / double(ref.totalMacs());
    const double array_ratio = 0.5 * lane_ratio + 0.5 * mac_ratio;
    const double sram_ratio = double(hw.totalSramBytes()) /
                              double(ref.totalSramBytes());
    const double ports = double(hw.act_gb_banks) * hw.act_gb_count;
    const double ref_ports =
        double(ref.act_gb_banks) * ref.act_gb_count;
    // Each Act-GB bank carries fixed periphery (decoder, sense amps,
    // bank control) that leaks regardless of the bank's capacity; at
    // the reference banking it sits inside the SRAM share, and extra
    // banks pay for it on top.
    const double bank_periphery =
        0.25 * (ports / ref_ports - 1.0);
    // Leakage: a fixed fabric floor plus array and SRAM shares.
    m.leakage_w = 0.030 * (0.10 + 0.40 * array_ratio +
                           0.50 * sram_ratio + bank_periphery);
    // Clock tree: mostly the array's flops and lane control.
    m.clock_tree_w = 0.125 * (0.2 + 0.8 * array_ratio);
    return m;
}

SearchSpace
SearchSpace::defaultSpace()
{
    SearchSpace s;
    s.mac_lanes = {64, 128, 256};
    s.macs_per_lane = {4, 8};
    s.act_gb_bytes = {128 * 1024, 256 * 1024, 512 * 1024,
                      1024 * 1024, 2048 * 1024};
    s.act_gb_banks = {2, 4, 8};
    s.weight_buf_bytes = {64 * 1024, 128 * 1024};
    return s;
}

bool
dominates(const DesignPoint &a, const DesignPoint &b)
{
    const long long a_sram = a.hw.totalSramBytes();
    const long long b_sram = b.hw.totalSramBytes();
    const bool no_worse =
        a.perf.fps >= b.perf.fps &&
        a.perf.energy_per_frame_j <= b.perf.energy_per_frame_j &&
        a_sram <= b_sram;
    const bool strictly_better =
        a.perf.fps > b.perf.fps ||
        a.perf.energy_per_frame_j < b.perf.energy_per_frame_j ||
        a_sram < b_sram;
    return no_worse && strictly_better;
}

Result<SearchResult>
searchParetoFront(const SearchSpace &space)
{
    if (space.mac_lanes.empty() || space.macs_per_lane.empty() ||
        space.act_gb_bytes.empty() || space.act_gb_banks.empty() ||
        space.weight_buf_bytes.empty())
        return Status::error(ErrorCode::InvalidArgument,
                             "search space has an empty axis");

    const std::vector<accel::ModelWorkload> workloads =
        accel::buildPipelineWorkload(space.workload);

    SearchResult r;
    r.lattice_size = (long long)space.mac_lanes.size() *
                     (long long)space.macs_per_lane.size() *
                     (long long)space.act_gb_bytes.size() *
                     (long long)space.act_gb_banks.size() *
                     (long long)space.weight_buf_bytes.size();

    const std::vector<CapacityFit> capacities =
        analyzeCapacities(workloads, space);
    // Monotone rule 1: weight-buffer capacity buys no cycles in the
    // dataflow model — only SRAM and leakage — so only the lattice
    // minimum can be Pareto-optimal.
    const long min_weight_buf = *std::min_element(
        space.weight_buf_bytes.begin(), space.weight_buf_bytes.end());
    const long long pruned_weight_bufs =
        (long long)space.weight_buf_bytes.size() - 1;

    for (int lanes : space.mac_lanes) {
        for (int macs : space.macs_per_lane) {
            for (int banks : space.act_gb_banks) {
                // Monotone rule 2: walk capacities smallest-first;
                // past the first unpartitioned (P == 1) fit, extra
                // capacity cannot reduce cycles — prune the rest.
                bool past_unpartitioned = false;
                for (const CapacityFit &cap : capacities) {
                    if (!cap.fits) {
                        r.pruned_infeasible +=
                            1 + pruned_weight_bufs;
                        continue;
                    }
                    if (past_unpartitioned) {
                        r.pruned_monotone += 1 + pruned_weight_bufs;
                        continue;
                    }
                    if (cap.partition_factor == 1)
                        past_unpartitioned = true;

                    accel::HwConfig hw;
                    hw.mac_lanes = lanes;
                    hw.macs_per_lane = macs;
                    hw.act_gb_banks = banks;
                    hw.act_gb_bytes = cap.act_gb_bytes;
                    hw.weight_buf_bytes = min_weight_buf;
                    r.pruned_monotone += pruned_weight_bufs;

                    if (!accel::validateHwConfig(hw).isOk()) {
                        r.pruned_infeasible += 1;
                        continue;
                    }
                    Result<accel::PerfReport> perf =
                        accel::simulateChecked(workloads, hw,
                                               energyModelFor(hw));
                    if (!perf.ok()) {
                        r.pruned_infeasible += 1;
                        continue;
                    }
                    r.evaluated += 1;
                    DesignPoint p;
                    p.hw = hw;
                    p.perf = perf.take();
                    p.is_paper = isPaperConfig(hw);
                    if (p.is_paper)
                        r.paper_index = int(r.points.size());
                    r.points.push_back(std::move(p));
                }
            }
        }
    }

    // Pareto classification: quadratic scan is fine at this scale.
    for (size_t i = 0; i < r.points.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < r.points.size() && !dominated; ++j)
            dominated = j != i && dominates(r.points[j], r.points[i]);
        r.points[i].on_front = !dominated;
        if (!dominated)
            r.front.push_back(i);
    }
    std::sort(r.front.begin(), r.front.end(),
              [&r](size_t a, size_t b) {
                  if (r.points[a].perf.fps != r.points[b].perf.fps)
                      return r.points[a].perf.fps >
                             r.points[b].perf.fps;
                  return a < b;
              });
    r.paper_on_front = r.paper_index >= 0 &&
                       r.points[size_t(r.paper_index)].on_front;
    return r;
}

std::string
searchResultJson(const SearchResult &result)
{
    std::string out;
    out += "{\n  \"counters\": {\n";
    appendf(out, "    \"lattice_size\": %lld,\n",
            result.lattice_size);
    appendf(out, "    \"evaluated\": %lld,\n", result.evaluated);
    appendf(out, "    \"pruned_infeasible\": %lld,\n",
            result.pruned_infeasible);
    appendf(out, "    \"pruned_monotone\": %lld,\n",
            result.pruned_monotone);
    appendf(out, "    \"front_size\": %zu,\n", result.front.size());
    appendf(out, "    \"paper_index\": %d,\n", result.paper_index);
    appendf(out, "    \"paper_on_front\": %s\n",
            result.paper_on_front ? "true" : "false");
    out += "  },\n  \"points\": [\n";
    for (size_t i = 0; i < result.points.size(); ++i) {
        const DesignPoint &p = result.points[i];
        out += "    {";
        appendf(out, "\"mac_lanes\": %d, ", p.hw.mac_lanes);
        appendf(out, "\"macs_per_lane\": %d, ", p.hw.macs_per_lane);
        appendf(out, "\"act_gb_kib\": %ld, ",
                p.hw.act_gb_bytes / 1024);
        appendf(out, "\"act_gb_banks\": %d, ", p.hw.act_gb_banks);
        appendf(out, "\"weight_buf_kib\": %ld, ",
                p.hw.weight_buf_bytes / 1024);
        appendf(out, "\"fps\": %.17g, ", p.perf.fps);
        appendf(out, "\"energy_per_frame_j\": %.17g, ",
                p.perf.energy_per_frame_j);
        appendf(out, "\"sram_total_bytes\": %lld, ",
                p.hw.totalSramBytes());
        appendf(out, "\"partition_factor\": %d, ",
                p.perf.partition_factor);
        appendf(out, "\"on_front\": %s, ",
                p.on_front ? "true" : "false");
        appendf(out, "\"is_paper\": %s}",
                p.is_paper ? "true" : "false");
        out += i + 1 < result.points.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

} // namespace dse
} // namespace eyecod
