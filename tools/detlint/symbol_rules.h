/**
 * @file
 * Phase 2 of detlint's two-phase analysis: cross-file symbol rules.
 *
 *  R10 lock-discipline: a data member annotated
 *      EYECOD_GUARDED_BY(mu_) may only be touched inside a lock
 *      scope that names that mutex (MutexLock / UniqueMutexLock /
 *      std::lock_guard / unique_lock / scoped_lock), or from a
 *      method carrying EYECOD_REQUIRES(mu_). The model is textual
 *      and scope-wide: a lock declared mid-block covers the rest of
 *      the block (and lambdas inside it), so an access *before* the
 *      lock declaration — the "lock taken too late" bug — is flagged.
 *      Constructors and destructors are exempt (no concurrent
 *      callers exist yet / anymore).
 *  R11 view-escape: ImageView / ImageConstView are epoch-scoped
 *      loans from a BufferArena. Storing one where it outlives the
 *      epoch — a view-typed data member, a static view variable, a
 *      function returning a reference to a view, or a member
 *      assigned from an arena allocation — dangles at the next
 *      arena reset. Scoped to the frame-spine dirs + src/core/.
 *
 * Both rules run over the DeclIndex (index.h) and honor the
 * same detlint:allow suppression comments as the per-line rules,
 * anchored at the finding's own file and line.
 */

#ifndef EYECOD_TOOLS_DETLINT_SYMBOL_RULES_H
#define EYECOD_TOOLS_DETLINT_SYMBOL_RULES_H

#include <vector>

#include "index.h"
#include "rules.h"

namespace eyecod {
namespace detlint {

/** Run R10/R11 over the index (suppressions NOT yet applied —
 *  the caller filters against each finding's anchor file). */
std::vector<Finding> runSymbolRules(const DeclIndex &ix,
                                    const std::vector<SourceFile> &files,
                                    const AnalyzeOptions &opts);

} // namespace detlint
} // namespace eyecod

#endif // EYECOD_TOOLS_DETLINT_SYMBOL_RULES_H
