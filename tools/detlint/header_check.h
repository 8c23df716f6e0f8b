/**
 * @file
 * Header self-containment check (rule H1).
 *
 * Every header under src/ must compile as the sole content of a
 * translation unit: a header that silently relies on what a previous
 * include happened to pull in breaks as soon as include order
 * changes, which in a 10-subsystem tree is every other refactor.
 * The check materializes a one-line TU per header and runs the real
 * compiler in syntax-only mode, so "self-contained" means exactly
 * what the build system would see.
 */

#ifndef EYECOD_TOOLS_DETLINT_HEADER_CHECK_H
#define EYECOD_TOOLS_DETLINT_HEADER_CHECK_H

#include <string>
#include <vector>

#include "findings.h"

namespace eyecod {
namespace detlint {

struct HeaderCheckOptions
{
    std::string cxx;      ///< Compiler binary; empty = $CXX or "c++".
    std::string std_flag = "-std=c++20";
    std::vector<std::string> include_dirs; ///< -I roots for the TU.
};

/**
 * Compile every .h/.hpp under @p roots standalone, each probe TU in a
 * temp directory private to the call (so concurrent runs are safe)
 * and removed on return. Returns one H1 finding per header that
 * fails, message carrying the first diagnostic line. @p checked
 * (optional) receives the count of headers compiled.
 */
std::vector<Finding> checkHeaders(const std::string &repo_root,
                                  const std::vector<std::string> &roots,
                                  const HeaderCheckOptions &opts,
                                  int *checked = nullptr);

} // namespace detlint
} // namespace eyecod

#endif // EYECOD_TOOLS_DETLINT_HEADER_CHECK_H
