/**
 * @file
 * Finding records and output formatting for detlint.
 *
 * A Finding pins one rule violation to a file:line. Output comes in
 * two formats: a human-readable `file:line: [RULE] message` stream
 * for terminals, and a machine-readable JSON document for CI
 * tooling. Findings are always emitted in (file, line, rule) order
 * so output is stable across runs and filesystem enumeration order.
 */

#ifndef EYECOD_TOOLS_DETLINT_FINDINGS_H
#define EYECOD_TOOLS_DETLINT_FINDINGS_H

#include <ostream>
#include <string>
#include <vector>

namespace eyecod {
namespace detlint {

/** Stable identifiers for the enforced rules. */
enum class Rule {
    R1UnseededRng = 0, ///< Randomness outside common/rng.h.
    R2WallClock,       ///< Wall-clock time in virtual-time dirs.
    R3UnorderedIter,   ///< Iteration over unordered containers.
    R4HotPathThrow,    ///< throw / discarded Result-Status in hot paths.
    R5WarnInLoop,      ///< Unbounded warn() inside a loop body.
    R6FloatReduction,  ///< Reduction-order-hazardous primitives.
    R7ImageCopy,       ///< By-value Image traffic in hot-path dirs.
    R8UnboundedPushBack, ///< push_back into members on serve hot paths.
    R9RawMemcpySerialize, ///< memcpy/reinterpret_cast (de)serialization
                          ///  in snapshot/codec code.
    R10LockDiscipline,  ///< EYECOD_GUARDED_BY member touched lock-free.
    R11ViewEscape,      ///< Arena view stored past its epoch.
    H1HeaderSelfContained, ///< Header fails standalone compile.
};

/**
 * One row of the rule table: the single source of truth every rule
 * listing (parseRule, --list-rules, the default enabled set) derives
 * from, so adding an enum value without a row is a compile-time
 * error in ruleId()'s switch and the listings can never drift again.
 */
struct RuleInfo
{
    Rule rule;
    const char *id;      ///< Short id ("R1"), suppression comments.
    const char *name;    ///< Long kebab-case name ("unseeded-rng").
    const char *summary; ///< One-line description for --list-rules.
};

/** Every rule, in id order. */
const std::vector<RuleInfo> &allRules();

/** Short id ("R1") used in suppression comments and output. */
const char *ruleId(Rule rule);

/** Long kebab-case name ("unseeded-rng"). */
const char *ruleName(Rule rule);

/** Parse "R1" or "unseeded-rng" into a Rule; false when unknown. */
bool parseRule(const std::string &text, Rule *out);

/** One rule violation at a specific location. */
struct Finding
{
    Rule rule = Rule::R1UnseededRng;
    std::string file; ///< Repo-relative path.
    int line = 0;     ///< 1-based.
    std::string message;
};

/** Sort findings into the canonical (file, line, rule) order. */
void sortFindings(std::vector<Finding> *findings);

/** `file:line: [id-name] message`, one per line. */
void emitText(const std::vector<Finding> &findings, std::ostream &os);

/** JSON: {"findings": [{file, line, rule, name, message}], "count"}. */
void emitJson(const std::vector<Finding> &findings, std::ostream &os);

} // namespace detlint
} // namespace eyecod

#endif // EYECOD_TOOLS_DETLINT_FINDINGS_H
