/**
 * @file
 * perfbench: one command for the EyeCoD end-to-end benchmark.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--git-sha <sha>]
 *   perfbench --selftest
 *
 * With --trace 0 the run prints the end-to-end metrics; with
 * --trace 1 it prints the per-layer metrics and writes a Chrome
 * trace-event file under <out-dir>/traces. The last stdout line is
 * the JSON result; the exit code is non-zero when any output check
 * fails.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/alloc_counter.h"
#include "workloads.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                 "[--git-sha <sha>]\n"
                 "       perfbench --selftest\n"
                 "workloads:");
    for (const perfbench::WorkloadSpec &s : perfbench::workloadSpecs())
        std::fprintf(stderr, " %s", s.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pull in the operator new/delete counting hooks.
    eyecod::allocHooksForceLink();

    perfbench::RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return perfbench::runSelfTests();
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return usage();
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0.0))
                return usage();
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage();
            opt.trace = value == "1";
        } else if (arg == "--out-dir") {
            opt.out_dir = value;
        } else if (arg == "--git-sha") {
            opt.git_sha = value;
        } else {
            return usage();
        }
    }
    if (!have_workload)
        return usage();
    return perfbench::runWorkload(opt);
}
