#include "findings.h"

#include <algorithm>
#include <tuple>

namespace eyecod {
namespace detlint {

const std::vector<RuleInfo> &
allRules()
{
    static const std::vector<RuleInfo> kTable = {
        {Rule::R1UnseededRng, "R1", "unseeded-rng",
         "randomness outside the seeded eyecod::Rng"},
        {Rule::R2WallClock, "R2", "wall-clock",
         "wall-clock time in virtual-time directories"},
        {Rule::R3UnorderedIter, "R3", "unordered-iteration",
         "iteration over hash-ordered containers"},
        {Rule::R4HotPathThrow, "R4", "hot-path-throw-or-discard",
         "throw / discarded checked result on a hot path"},
        {Rule::R5WarnInLoop, "R5", "warn-in-loop",
         "unbounded warn() inside a loop body"},
        {Rule::R6FloatReduction, "R6", "float-reduction-order",
         "reduction primitives with unspecified order"},
        {Rule::R7ImageCopy, "R7", "image-copy",
         "by-value Image traffic on the frame spine"},
        {Rule::R8UnboundedPushBack, "R8", "unbounded-push-back",
         "member container growth on serve hot paths"},
        {Rule::R9RawMemcpySerialize, "R9", "raw-memcpy-serialize",
         "raw-memory (de)serialization in snapshot code"},
        {Rule::R10LockDiscipline, "R10", "lock-discipline",
         "EYECOD_GUARDED_BY member accessed without its mutex"},
        {Rule::R11ViewEscape, "R11", "view-escape",
         "arena view stored where it outlives its epoch"},
        {Rule::H1HeaderSelfContained, "H1", "header-self-contained",
         "header fails to compile standalone"},
    };
    return kTable;
}

namespace {

/** Table row for @p rule; falls back to the first row (never hit —
 *  ruleId()'s switch-free lookup is exercised for every enum value by
 *  the round-trip test). */
const RuleInfo &
infoOf(Rule rule)
{
    for (const RuleInfo &info : allRules())
        if (info.rule == rule)
            return info;
    return allRules().front();
}

} // namespace

const char *
ruleId(Rule rule)
{
    return infoOf(rule).id;
}

const char *
ruleName(Rule rule)
{
    return infoOf(rule).name;
}

bool
parseRule(const std::string &text, Rule *out)
{
    for (const RuleInfo &info : allRules()) {
        if (text == info.id || text == info.name) {
            *out = info.rule;
            return true;
        }
    }
    return false;
}

void
sortFindings(std::vector<Finding> *findings)
{
    std::stable_sort(findings->begin(), findings->end(),
                     [](const Finding &a, const Finding &b) {
                         return std::tie(a.file, a.line, a.rule) <
                                std::tie(b.file, b.line, b.rule);
                     });
}

void
emitText(const std::vector<Finding> &findings, std::ostream &os)
{
    for (const Finding &f : findings) {
        os << f.file << ":" << f.line << ": [" << ruleId(f.rule) << "-"
           << ruleName(f.rule) << "] " << f.message << "\n";
    }
}

namespace {

/** Escape a string for embedding in a JSON document. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
emitJson(const std::vector<Finding> &findings, std::ostream &os)
{
    os << "{\n  \"findings\": [";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i ? ",\n    " : "\n    ") << "{\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << ruleId(f.rule) << "\", \"name\": \""
           << ruleName(f.rule) << "\", \"message\": \""
           << jsonEscape(f.message) << "\"}";
    }
    os << (findings.empty() ? "]" : "\n  ]") << ",\n  \"count\": "
       << findings.size() << "\n}\n";
}

} // namespace detlint
} // namespace eyecod
