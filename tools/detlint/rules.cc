#include "rules.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "index.h"
#include "lexer.h"
#include "symbol_rules.h"

namespace fs = std::filesystem;

namespace eyecod {
namespace detlint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
inAnyDir(const std::string &relpath,
         const std::vector<std::string> &prefixes)
{
    for (const std::string &p : prefixes)
        if (startsWith(relpath, p))
            return true;
    return false;
}

// ---------------------------------------------------------------------
// Per-directory scoping. Paths are repo-relative with '/' separators.
// ---------------------------------------------------------------------

/** Dirs that must run on virtual time only (R2 wall-clock set). */
const std::vector<std::string> kVirtualTimeDirs = {
    "src/accel/", "src/serve/", "src/flatcam/", "src/nn/"};

/** Files allowed to read steady_clock (real elapsed time is the point). */
const std::vector<std::string> kSteadyClockAllowed = {
    "bench/", "src/common/thread_pool.cc", "src/common/thread_pool.h"};

/** Exception-free hot-path dirs (R4 throw). */
const std::vector<std::string> kHotPathDirs = {
    "src/accel/", "src/serve/", "src/nn/",
    "src/flatcam/", "src/eyetrack/", "src/core/"};

/** The one home of seeded randomness (R1 exemption). */
const char kRngHeader[] = "src/common/rng.h";

bool
isDeterministicSrc(const std::string &relpath)
{
    return startsWith(relpath, "src/");
}

// ---------------------------------------------------------------------
// Identifier sets.
// ---------------------------------------------------------------------

const std::set<std::string> kRandomEngines = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48",
    "ranlux24_base", "ranlux48_base", "knuth_b"};

const std::set<std::string> kRandomCalls = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "random"};

const std::set<std::string> kWallClockTypes = {"system_clock",
                                               "high_resolution_clock"};

const std::set<std::string> kWallClockCalls = {
    "time", "clock", "gettimeofday", "clock_gettime", "localtime",
    "gmtime", "strftime", "mktime", "asctime", "ctime", "ftime"};

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/** Checked entry points whose return must never be dropped. */
bool
isMustCheckCall(const std::string &name)
{
    if (name == "validateHwConfig")
        return true;
    static const std::string suffix = "Checked";
    return name.size() > suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

// ---------------------------------------------------------------------
// Token helpers over the comment-free stream (isPunct / isIdent /
// matchParen and the suppression machinery now live in index.h,
// shared with the phase-2 symbol rules).
// ---------------------------------------------------------------------

/** True when toks[i] is a member access (x.name / x->name). */
bool
isMemberAccess(const std::vector<Token> &toks, size_t i)
{
    return i > 0 && (isPunct(toks[i - 1], ".") ||
                     isPunct(toks[i - 1], "->"));
}

/**
 * For an identifier at @p i qualified as `ns::name`, true when the
 * qualifier is std (or the name is unqualified / globally
 * qualified). `other_ns::rand` is someone else's function.
 */
bool
stdOrUnqualified(const std::vector<Token> &toks, size_t i)
{
    if (i == 0 || !isPunct(toks[i - 1], "::"))
        return true; // unqualified
    if (i == 1)
        return true; // ::name — global scope
    const Token &q = toks[i - 2];
    if (q.kind != TokKind::Identifier)
        return true; // ::name after punctuation — global scope
    return q.text == "std" || q.text == "chrono";
}

// ---------------------------------------------------------------------
// R1 / R2 / R6: banned-identifier scans.
// ---------------------------------------------------------------------

void
scanBannedIdentifiers(const std::vector<Token> &toks,
                      const std::string &relpath,
                      const AnalyzeOptions &opts,
                      std::vector<Finding> *out)
{
    const bool r1 = opts.runs(Rule::R1UnseededRng) && relpath != kRngHeader;
    const bool r2_wall = opts.runs(Rule::R2WallClock) &&
                         inAnyDir(relpath, kVirtualTimeDirs);
    const bool r2_steady = opts.runs(Rule::R2WallClock) &&
                           !inAnyDir(relpath, kSteadyClockAllowed);
    const bool r6 = opts.runs(Rule::R6FloatReduction) &&
                    isDeterministicSrc(relpath);

    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier || t.preproc)
            continue;
        if (isMemberAccess(toks, i))
            continue;
        const bool called =
            i + 1 < toks.size() && isPunct(toks[i + 1], "(");

        if (r1 && kRandomEngines.count(t.text)) {
            out->push_back({Rule::R1UnseededRng, relpath, t.line,
                            "random engine '" + t.text +
                                "' outside common/rng.h; draw from an "
                                "explicitly seeded eyecod::Rng"});
        } else if (r1 && called && kRandomCalls.count(t.text) &&
                   stdOrUnqualified(toks, i)) {
            out->push_back({Rule::R1UnseededRng, relpath, t.line,
                            "unseeded C-library randomness '" + t.text +
                                "()'; draw from an explicitly seeded "
                                "eyecod::Rng"});
        }

        if (r2_wall && kWallClockTypes.count(t.text)) {
            out->push_back({Rule::R2WallClock, relpath, t.line,
                            "wall-clock type '" + t.text +
                                "' in a virtual-time directory; derive "
                                "time from the simulated clock"});
        } else if (r2_wall && called && kWallClockCalls.count(t.text) &&
                   stdOrUnqualified(toks, i)) {
            out->push_back({Rule::R2WallClock, relpath, t.line,
                            "wall-clock call '" + t.text +
                                "()' in a virtual-time directory; derive "
                                "time from the simulated clock"});
        }
        if (r2_steady && t.text == "steady_clock") {
            out->push_back({Rule::R2WallClock, relpath, t.line,
                            "steady_clock outside bench/ and the thread "
                            "pool; deterministic code must use virtual "
                            "time"});
        }

        if (r6 && (t.text == "reduce" || t.text == "transform_reduce") &&
            i >= 2 && isPunct(toks[i - 1], "::") &&
            isIdent(toks[i - 2], "std")) {
            out->push_back({Rule::R6FloatReduction, relpath, t.line,
                            "std::" + t.text +
                                " has unspecified accumulation order; "
                                "use a fixed-order loop"});
        }
        if (r6 && isIdent(t, "execution") && i + 3 < toks.size() &&
            isPunct(toks[i + 1], "::") &&
            (isIdent(toks[i + 2], "par") ||
             isIdent(toks[i + 2], "par_unseq") ||
             isIdent(toks[i + 2], "unseq"))) {
            out->push_back({Rule::R6FloatReduction, relpath, t.line,
                            "std::execution::" + toks[i + 2].text +
                                " makes reduction order (and float "
                                "results) nondeterministic"});
        }
    }
}

// ---------------------------------------------------------------------
// R3: iteration over unordered containers.
// ---------------------------------------------------------------------

/**
 * Names declared in this file with an unordered container type
 * (variables and data members; heuristic, one file at a time).
 */
std::set<std::string>
collectUnorderedNames(const std::vector<Token> &toks)
{
    std::set<std::string> names;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier ||
            !kUnorderedTypes.count(toks[i].text))
            continue;
        size_t j = i + 1;
        if (j >= toks.size() || !isPunct(toks[j], "<"))
            continue;
        // Skip the template argument list, counting angle depth.
        int depth = 0;
        for (; j < toks.size(); ++j) {
            if (isPunct(toks[j], "<"))
                ++depth;
            else if (isPunct(toks[j], ">") && --depth == 0)
                break;
            else if (isPunct(toks[j], ">>") && (depth -= 2) <= 0)
                break;
        }
        // The declared name follows, possibly after cv/ref tokens.
        for (++j; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (isPunct(t, "&") || isPunct(t, "*") ||
                isIdent(t, "const"))
                continue;
            if (t.kind == TokKind::Identifier)
                names.insert(t.text);
            break;
        }
    }
    return names;
}

void
scanUnorderedIteration(const std::vector<Token> &toks,
                       const std::string &relpath,
                       const AnalyzeOptions &opts,
                       std::vector<Finding> *out)
{
    if (!opts.runs(Rule::R3UnorderedIter) || !isDeterministicSrc(relpath))
        return;
    const std::set<std::string> names = collectUnorderedNames(toks);

    for (size_t i = 0; i < toks.size(); ++i) {
        // Range-for whose range expression names an unordered
        // container (or constructs one inline).
        if (isIdent(toks[i], "for") && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "(")) {
            const size_t close = matchParen(toks, i + 1);
            size_t colon = toks.size();
            int depth = 0;
            for (size_t j = i + 1; j < close; ++j) {
                if (isPunct(toks[j], "(") || isPunct(toks[j], "[") ||
                    isPunct(toks[j], "{"))
                    ++depth;
                else if (isPunct(toks[j], ")") || isPunct(toks[j], "]") ||
                         isPunct(toks[j], "}"))
                    --depth;
                else if (depth == 1 && isPunct(toks[j], ":")) {
                    colon = j;
                    break;
                }
            }
            for (size_t j = colon + 1; j < close && colon < close; ++j) {
                const Token &t = toks[j];
                if (t.kind == TokKind::Identifier &&
                    (names.count(t.text) ||
                     kUnorderedTypes.count(t.text)) &&
                    !isMemberAccess(toks, j)) {
                    out->push_back(
                        {Rule::R3UnorderedIter, relpath, t.line,
                         "range-for over unordered container '" + t.text +
                             "'; hash order is nondeterministic — "
                             "iterate a sorted copy or a vector"});
                    break;
                }
            }
        }
        // Explicit iterator walk: name.begin() / name->cbegin() etc.
        if (toks[i].kind == TokKind::Identifier &&
            names.count(toks[i].text) && i + 2 < toks.size() &&
            (isPunct(toks[i + 1], ".") || isPunct(toks[i + 1], "->")) &&
            (isIdent(toks[i + 2], "begin") ||
             isIdent(toks[i + 2], "cbegin") ||
             isIdent(toks[i + 2], "rbegin"))) {
            out->push_back({Rule::R3UnorderedIter, relpath, toks[i].line,
                            "iterator walk over unordered container '" +
                                toks[i].text +
                                "'; hash order is nondeterministic — "
                                "iterate a sorted copy or a vector"});
        }
    }
}

// ---------------------------------------------------------------------
// R4: throw in hot paths; discarded checked results.
// ---------------------------------------------------------------------

void
scanThrowAndDiscard(const std::vector<Token> &toks,
                    const std::string &relpath,
                    const AnalyzeOptions &opts,
                    std::vector<Finding> *out)
{
    if (!opts.runs(Rule::R4HotPathThrow))
        return;
    const bool hot = inAnyDir(relpath, kHotPathDirs);

    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier || t.preproc)
            continue;

        if (hot && t.text == "throw") {
            out->push_back({Rule::R4HotPathThrow, relpath, t.line,
                            "throw in a hot-path directory; return a "
                            "Status / Result<T> instead"});
            continue;
        }

        // Discarded checked call: `obj.runChecked(...);` at statement
        // position with nothing consuming the result.
        if (!isMustCheckCall(t.text) || i + 1 >= toks.size() ||
            !isPunct(toks[i + 1], "("))
            continue;
        // Walk back over the object chain (x.y->z::).
        size_t k = i;
        while (k >= 2 &&
               (isPunct(toks[k - 1], ".") || isPunct(toks[k - 1], "->") ||
                isPunct(toks[k - 1], "::")) &&
               toks[k - 2].kind == TokKind::Identifier)
            k -= 2;
        const bool stmt_start =
            k == 0 || isPunct(toks[k - 1], ";") ||
            isPunct(toks[k - 1], "{") || isPunct(toks[k - 1], "}");
        if (!stmt_start)
            continue;
        const size_t close = matchParen(toks, i + 1);
        if (close + 1 < toks.size() && isPunct(toks[close + 1], ";")) {
            out->push_back({Rule::R4HotPathThrow, relpath, t.line,
                            "result of checked call '" + t.text +
                                "()' is discarded; branch on it (or "
                                "cast to void under an allow comment)"});
        }
    }
}

// ---------------------------------------------------------------------
// R5: warn() inside loop bodies.
// ---------------------------------------------------------------------

void
scanWarnInLoop(const std::vector<Token> &toks, const std::string &relpath,
               const AnalyzeOptions &opts, std::vector<Finding> *out)
{
    if (!opts.runs(Rule::R5WarnInLoop))
        return;

    std::vector<bool> brace_is_loop; // one entry per open brace
    std::vector<size_t> unbraced_at; // brace depth of unbraced bodies
    bool pending_head = false;       // inside for/while (...) control
    int head_parens = 0;
    bool pending_body = false; // control closed; next token starts body
    int loop_braces = 0;       // count of open loop-tagged braces

    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == TokKind::Comment)
            continue;

        if (pending_head) {
            if (isPunct(t, "(")) {
                ++head_parens;
            } else if (isPunct(t, ")")) {
                if (--head_parens == 0) {
                    pending_head = false;
                    pending_body = true;
                }
            }
            continue;
        }

        if (pending_body) {
            pending_body = false;
            if (isPunct(t, "{")) {
                brace_is_loop.push_back(true);
                ++loop_braces;
                continue;
            }
            if (!isPunct(t, ";"))
                unbraced_at.push_back(brace_is_loop.size());
            // fall through: the token itself is part of the body.
        }

        if (isIdent(t, "for") || isIdent(t, "while")) {
            pending_head = true;
            head_parens = 0;
            continue;
        }
        if (isIdent(t, "do")) {
            pending_body = true;
            continue;
        }

        if (isPunct(t, "{")) {
            brace_is_loop.push_back(false);
        } else if (isPunct(t, "}")) {
            if (!brace_is_loop.empty()) {
                if (brace_is_loop.back())
                    --loop_braces;
                brace_is_loop.pop_back();
            }
            while (!unbraced_at.empty() &&
                   unbraced_at.back() > brace_is_loop.size())
                unbraced_at.pop_back();
        } else if (isPunct(t, ";")) {
            while (!unbraced_at.empty() &&
                   unbraced_at.back() == brace_is_loop.size())
                unbraced_at.pop_back();
        }

        const bool in_loop = loop_braces > 0 || !unbraced_at.empty();
        if (in_loop && isIdent(t, "warn") && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "(") && !isMemberAccess(toks, i) &&
            !t.preproc) {
            out->push_back({Rule::R5WarnInLoop, relpath, t.line,
                            "warn() inside a loop body floods stderr at "
                            "streaming rates; use warnLimited()"});
        }
    }
}

// ---------------------------------------------------------------------
// R7: by-value Image traffic on the zero-copy frame spine.
// ---------------------------------------------------------------------

/** Dirs on the zero-copy frame spine (R7 image-copy). */
const std::vector<std::string> kFrameSpineDirs = {
    "src/flatcam/", "src/eyetrack/", "src/nn/", "src/serve/"};

void
scanImageCopy(const std::vector<Token> &toks,
              const std::string &relpath, const AnalyzeOptions &opts,
              std::vector<Finding> *out)
{
    if (!opts.runs(Rule::R7ImageCopy) ||
        !inAnyDir(relpath, kFrameSpineDirs))
        return;

    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier || t.text != "Image" ||
            t.preproc)
            continue;
        if (isMemberAccess(toks, i))
            continue;

        // By-value (optionally const) `Image` parameter: preceded by
        // '(' or ',', followed by the parameter name and ',', ')' or
        // a default argument — i.e. no '&' / '*' declarator.
        size_t k = i;
        if (k >= 1 && isIdent(toks[k - 1], "const"))
            --k;
        const bool param_pos = k >= 1 && (isPunct(toks[k - 1], "(") ||
                                          isPunct(toks[k - 1], ","));
        if (param_pos && i + 2 < toks.size() &&
            toks[i + 1].kind == TokKind::Identifier &&
            (isPunct(toks[i + 2], ",") || isPunct(toks[i + 2], ")") ||
             isPunct(toks[i + 2], "="))) {
            out->push_back(
                {Rule::R7ImageCopy, relpath, t.line,
                 "by-value Image parameter '" + toks[i + 1].text +
                     "' copies a full frame on every call; take an "
                     "ImageConstView (or const Image&)"});
            continue;
        }

        // Statement-level copy-construction `Image a = b;` from a
        // plain identifier (initialization from a call expression is
        // a move and does not match).
        const bool stmt_start = i == 0 || isPunct(toks[i - 1], ";") ||
                                isPunct(toks[i - 1], "{") ||
                                isPunct(toks[i - 1], "}");
        if (stmt_start && i + 4 < toks.size() &&
            toks[i + 1].kind == TokKind::Identifier &&
            isPunct(toks[i + 2], "=") &&
            toks[i + 3].kind == TokKind::Identifier &&
            isPunct(toks[i + 4], ";")) {
            out->push_back(
                {Rule::R7ImageCopy, relpath, t.line,
                 "Image copy-construction of '" + toks[i + 1].text +
                     "' duplicates frame storage; crop/resize through "
                     "views or reuse a member image"});
        }
    }
}

// ---------------------------------------------------------------------
// R8: unbounded push_back into member containers on serve hot paths.
// ---------------------------------------------------------------------

/**
 * Dirs whose member containers sit on a per-frame path (R8). The
 * serving engine's tick loop runs at streaming rates; a member
 * vector that grows per frame is a leak with a delay.
 */
const std::vector<std::string> kServeHotDirs = {"src/serve/"};

/**
 * Walk the receiver chain of the member call whose access token
 * ('.' or '->') sits at @p dot, reporting the innermost component
 * name through @p name. True when the chain roots in a data member:
 * any component using the trailing-underscore member convention, or
 * an explicit `this->`. Subscripts are skipped (`buf_[i].items`),
 * and a call-expression receiver (`make().push_back`) never names a
 * member.
 */
bool
receiverIsMember(const std::vector<Token> &toks, size_t dot,
                 std::string *name)
{
    bool member = false;
    size_t j = dot;
    while (j > 0) {
        --j; // last token of this receiver component
        // Skip balanced subscripts: by_session_[g].second ...
        while (j > 0 && isPunct(toks[j], "]")) {
            int depth = 0;
            for (;;) {
                if (isPunct(toks[j], "]"))
                    ++depth;
                else if (isPunct(toks[j], "[") && --depth == 0)
                    break;
                if (j == 0)
                    return member;
                --j;
            }
            if (j == 0)
                return member;
            --j;
        }
        if (toks[j].kind != TokKind::Identifier)
            return false;
        if (name->empty())
            *name = toks[j].text;
        if (toks[j].text == "this" || toks[j].text.back() == '_')
            member = true;
        if (j == 0 || !(isPunct(toks[j - 1], ".") ||
                        isPunct(toks[j - 1], "->") ||
                        isPunct(toks[j - 1], "::")))
            break;
        --j; // onto the separator; the loop steps past it
    }
    return member;
}

void
scanMemberPushBack(const std::vector<Token> &toks,
                   const std::string &relpath,
                   const AnalyzeOptions &opts,
                   std::vector<Finding> *out)
{
    if (!opts.runs(Rule::R8UnboundedPushBack) ||
        !inAnyDir(relpath, kServeHotDirs))
        return;
    for (size_t i = 1; i + 1 < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier || t.preproc)
            continue;
        if (t.text != "push_back" && t.text != "emplace_back")
            continue;
        if (!isMemberAccess(toks, i) || !isPunct(toks[i + 1], "("))
            continue;
        std::string name;
        if (!receiverIsMember(toks, i - 1, &name))
            continue;
        out->push_back(
            {Rule::R8UnboundedPushBack, relpath, t.line,
             t.text + " into member container '" + name +
                 "' on a per-frame path grows without bound; pool or "
                 "cap it, then state the bound in a "
                 "detlint:allow(R8) comment"});
    }
}

// ---------------------------------------------------------------------
// R9: raw-memory (de)serialization in snapshot/codec code.
// ---------------------------------------------------------------------

/**
 * True for files in the snapshot format's blast radius: anything
 * whose repo-relative path mentions "snapshot" (the codec itself and
 * per-component saveSnapshot/restoreSnapshot translation units that
 * adopt the naming convention).
 */
bool
isSnapshotCode(const std::string &relpath)
{
    return relpath.find("snapshot") != std::string::npos;
}

void
scanRawMemcpySerialize(const std::vector<Token> &toks,
                       const std::string &relpath,
                       const AnalyzeOptions &opts,
                       std::vector<Finding> *out)
{
    if (!opts.runs(Rule::R9RawMemcpySerialize) ||
        !isSnapshotCode(relpath))
        return;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier || t.preproc)
            continue;
        if (t.text == "reinterpret_cast") {
            out->push_back(
                {Rule::R9RawMemcpySerialize, relpath, t.line,
                 "reinterpret_cast in snapshot code reads struct "
                 "layout/padding into the wire format; encode each "
                 "field through the typed codec calls"});
            continue;
        }
        if (t.text != "memcpy" && t.text != "memmove")
            continue;
        if (isMemberAccess(toks, i))
            continue;
        const bool called =
            i + 1 < toks.size() && isPunct(toks[i + 1], "(");
        if (!called || !stdOrUnqualified(toks, i))
            continue;
        out->push_back(
            {Rule::R9RawMemcpySerialize, relpath, t.line,
             "whole-struct " + t.text +
                 " (de)serialization bakes layout, padding, and "
                 "endianness into the snapshot format; encode each "
                 "field through the typed codec calls"});
    }
}

} // namespace

std::vector<Finding>
analyzeSources(
    const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &opts)
{
    // Phase 0: lex every file once (both token streams + suppressions).
    std::vector<SourceFile> files;
    files.reserve(sources.size());
    for (const auto &[relpath, content] : sources)
        files.push_back(makeSourceFile(relpath, content));

    // Phase 1+2 per file: the line-oriented rules over the stream
    // that retains preprocessor tokens.
    std::vector<Finding> raw;
    for (const SourceFile &sf : files) {
        scanBannedIdentifiers(sf.toks, sf.relpath, opts, &raw);
        scanUnorderedIteration(sf.toks, sf.relpath, opts, &raw);
        scanThrowAndDiscard(sf.toks, sf.relpath, opts, &raw);
        scanWarnInLoop(sf.toks, sf.relpath, opts, &raw);
        scanImageCopy(sf.toks, sf.relpath, opts, &raw);
        scanMemberPushBack(sf.toks, sf.relpath, opts, &raw);
        scanRawMemcpySerialize(sf.toks, sf.relpath, opts, &raw);
    }

    // Cross-file symbol rules over the declaration index.
    if (opts.runs(Rule::R10LockDiscipline) ||
        opts.runs(Rule::R11ViewEscape)) {
        const DeclIndex ix = buildIndex(files);
        std::vector<Finding> sym = runSymbolRules(ix, files, opts);
        raw.insert(raw.end(), std::make_move_iterator(sym.begin()),
                   std::make_move_iterator(sym.end()));
    }

    // Suppressions anchor at each finding's own file and line.
    std::map<std::string, const Suppressions *> sup_of;
    for (const SourceFile &sf : files)
        sup_of[sf.relpath] = &sf.sup;
    std::vector<Finding> kept;
    for (Finding &f : raw) {
        auto it = sup_of.find(f.file);
        if (it == sup_of.end() ||
            !it->second->suppressed(f.rule, f.line))
            kept.push_back(std::move(f));
    }
    sortFindings(&kept);
    return kept;
}

std::vector<Finding>
analyzeSource(const std::string &relpath, const std::string &content,
              const AnalyzeOptions &opts)
{
    return analyzeSources({{relpath, content}}, opts);
}

std::vector<Finding>
analyzeTree(const std::string &repo_root,
            const std::vector<std::string> &roots,
            const AnalyzeOptions &opts,
            std::vector<std::string> *scanned_files)
{
    const fs::path base = repo_root.empty() ? fs::current_path()
                                            : fs::path(repo_root);
    std::vector<fs::path> files;
    for (const std::string &root : roots) {
        fs::path p(root);
        if (p.is_relative())
            p = base / p;
        std::error_code ec;
        if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
            continue;
        }
        if (!fs::is_directory(p, ec))
            continue;
        for (fs::recursive_directory_iterator it(p, ec), end;
             it != end && !ec; it.increment(ec)) {
            const fs::path &entry = it->path();
            const std::string name = entry.filename().string();
            if (it->is_directory() &&
                (name == "build" || name == ".git" ||
                 name == "fixtures")) {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = entry.extension().string();
            if (ext == ".h" || ext == ".hpp" || ext == ".cc" ||
                ext == ".cpp")
                files.push_back(entry);
        }
    }

    // All files feed one analyzeSources() call so the symbol rules
    // see cross-file declarations (e.g. a class in a header with its
    // codec bodies in the matching .cc).
    std::vector<std::pair<std::string, std::string>> sources;
    sources.reserve(files.size());
    for (const fs::path &file : files) {
        std::error_code ec;
        fs::path rel = fs::relative(file, base, ec);
        const std::string relpath =
            (ec || rel.empty()) ? file.generic_string()
                                : rel.generic_string();
        if (scanned_files)
            scanned_files->push_back(relpath);
        std::ifstream in(file);
        std::stringstream ss;
        ss << in.rdbuf();
        sources.emplace_back(relpath, ss.str());
    }
    return analyzeSources(sources, opts);
}

} // namespace detlint
} // namespace eyecod
