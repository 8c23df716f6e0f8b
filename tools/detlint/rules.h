/**
 * @file
 * The determinism & robustness rules detlint enforces.
 *
 * Each rule encodes an invariant the repo's correctness story rests
 * on but no compiler checks:
 *
 *  R1 unseeded-rng: all randomness flows through the explicitly
 *     seeded eyecod::Rng in src/common/rng.h. Naming a standard
 *     engine or calling C-library randomness anywhere else breaks
 *     bitwise replay.
 *  R2 wall-clock: the simulator, serving engine, optics, and NN
 *     runtime run on *virtual* time. system_clock / time() / clock()
 *     are banned in src/{accel,serve,flatcam,nn}; steady_clock is
 *     tolerated only where real elapsed time is the point — bench/
 *     and the thread pool's internal bookkeeping.
 *  R3 unordered-iteration: iterating an unordered container feeds
 *     hash-order into whatever consumes the loop (accumulation,
 *     scheduling, serialization) and hash order is not part of the
 *     contract. Banned across src/.
 *  R4 hot-path-throw-or-discard: hot-path dirs are exception-free
 *     (errors travel as Status / Result<T>), and a checked API's
 *     return must not be silently dropped at statement position.
 *  R5 warn-in-loop: an unbounded warn() inside a loop floods stderr
 *     at streaming rates; loop bodies must use warnLimited().
 *  R6 float-reduction-order: std::reduce / std::execution::par make
 *     float accumulation order unspecified — banned in src/, where
 *     every kernel is written to a fixed accumulation order.
 *  R7 image-copy: on the zero-copy frame spine (src/{flatcam,
 *     eyetrack,nn,serve}) a by-value Image parameter or a
 *     copy-construction from another Image duplicates a full frame
 *     per call; frames travel as ImageView / ImageConstView.
 *  R8 unbounded-push-back: push_back / emplace_back into a member
 *     container (receiver named with the trailing-underscore member
 *     convention, a this-> chain, or a member-of-member chain) inside
 *     src/serve/, whose engine runs per-frame at streaming rates.
 *     Member containers there must be pooled or explicitly bounded;
 *     every legitimate site carries a `detlint:allow(R8)` comment
 *     stating its bound.
 *  R9 raw-memcpy-serialize: in snapshot/codec code (any file whose
 *     path mentions "snapshot"), memcpy/memmove calls and
 *     reinterpret_cast bake struct layout, padding, and host
 *     endianness into the on-disk snapshot format. Every field must
 *     travel through the typed field-wise codec calls
 *     (common/snapshot.h) so the format stays portable and a hostile
 *     snapshot can never be reinterpreted as a live struct.
 *
 * The symbol-aware rules (R10 lock-discipline, R11 view-escape) run
 * in a second phase over a repo-wide declaration index — see index.h
 * and symbol_rules.h for the model each enforces.
 *
 * The list above is documentation; the authoritative rule table is
 * allRules() in findings.h, which every listing (parseRule,
 * --list-rules, the default enabled set) derives from.
 *
 * Suppression: `// detlint:allow(R1)` (or the long rule name)
 * suppresses that rule on the comment's line and the line below;
 * `// detlint:allow-file(R1,R5)` suppresses for the whole file.
 */

#ifndef EYECOD_TOOLS_DETLINT_RULES_H
#define EYECOD_TOOLS_DETLINT_RULES_H

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "findings.h"

namespace eyecod {
namespace detlint {

/** Which rules to run (scoping is still applied per file). */
struct AnalyzeOptions
{
    /** Empty means "every rule in allRules()". */
    std::set<Rule> enabled;

    /** True when @p rule should run. */
    bool
    runs(Rule rule) const
    {
        return enabled.empty() || enabled.count(rule) > 0;
    }
};

/**
 * Analyze one translation unit.
 *
 * @param relpath repo-relative path with '/' separators; drives the
 *                per-directory rule scoping documented above.
 * @param content full file text.
 */
std::vector<Finding> analyzeSource(const std::string &relpath,
                                   const std::string &content,
                                   const AnalyzeOptions &opts = {});

/**
 * Analyze a set of translation units together: the per-line rules
 * run on each file, then the symbol rules (R10/R11) run over a
 * declaration index built from all of them, so a class declared in
 * one file is checked against method bodies defined in another.
 * @param sources (repo-relative path, file content) pairs.
 */
std::vector<Finding>
analyzeSources(
    const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &opts = {});

/**
 * Recursively analyze every .h/.hpp/.cc/.cpp under @p roots
 * (directories or single files, absolute or relative to
 * @p repo_root). Directories named build, .git, or fixtures are
 * skipped. Findings come back sorted; @p scanned_files (optional)
 * receives the repo-relative paths visited.
 */
std::vector<Finding>
analyzeTree(const std::string &repo_root,
            const std::vector<std::string> &roots,
            const AnalyzeOptions &opts = {},
            std::vector<std::string> *scanned_files = nullptr);

} // namespace detlint
} // namespace eyecod

#endif // EYECOD_TOOLS_DETLINT_RULES_H
