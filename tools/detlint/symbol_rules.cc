#include "symbol_rules.h"

#include <map>
#include <set>
#include <utility>

namespace eyecod {
namespace detlint {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
inAnyDir(const std::string &relpath,
         const std::vector<std::string> &prefixes)
{
    for (const std::string &p : prefixes)
        if (startsWith(relpath, p.c_str()))
            return true;
    return false;
}

/** Dirs where arena views circulate (R11 scope): the zero-copy
 *  frame spine plus the top-level pipeline facade. */
const std::vector<std::string> kViewScopeDirs = {
    "src/flatcam/", "src/eyetrack/", "src/nn/", "src/serve/",
    "src/core/"};

/** RAII lock types whose declaration opens a lock scope (R10). */
const std::set<std::string> kLockTypes = {
    "MutexLock", "UniqueMutexLock", "lock_guard", "unique_lock",
    "scoped_lock"};

/** True when the identifier at @p i is a bare or this-> member
 *  access (not `other.name` / `ns::name`). */
bool
isSelfMemberRef(const std::vector<Token> &code, size_t i)
{
    if (i == 0)
        return true;
    const Token &prev = code[i - 1];
    if (isPunct(prev, "::"))
        return false;
    if (isPunct(prev, ".") || isPunct(prev, "->"))
        return i >= 2 && isIdent(code[i - 2], "this");
    return true;
}

// ---------------------------------------------------------------------
// R10: lock discipline over EYECOD_GUARDED_BY members.
// ---------------------------------------------------------------------

/** Mutex names a lock declaration at @p i acquires; empty when the
 *  tokens do not form `LockType[<...>] var (args)`. Advances @p i
 *  past the declaration on success. */
std::vector<std::string>
parseLockDecl(const std::vector<Token> &code, size_t *i)
{
    size_t j = *i + 1;
    if (j < code.size() && isPunct(code[j], "<")) {
        int angle = 0;
        for (; j < code.size(); ++j) {
            if (isPunct(code[j], "<"))
                ++angle;
            else if (isPunct(code[j], ">") && --angle == 0)
                break;
            else if (isPunct(code[j], ">>") && (angle -= 2) <= 0)
                break;
        }
        ++j;
    }
    if (j + 1 >= code.size() || code[j].kind != TokKind::Identifier ||
        !(isPunct(code[j + 1], "(") || isPunct(code[j + 1], "{")))
        return {};
    const size_t close = matchParen(code, j + 1);
    std::vector<std::string> mutexes;
    std::string last;
    int depth = 0;
    for (size_t k = j + 2; k < close; ++k) {
        if (isPunct(code[k], "(") || isPunct(code[k], "[") ||
            isPunct(code[k], "{")) {
            ++depth;
        } else if (isPunct(code[k], ")") || isPunct(code[k], "]") ||
                   isPunct(code[k], "}")) {
            --depth;
        } else if (isPunct(code[k], ",") && depth == 0) {
            if (!last.empty())
                mutexes.push_back(last);
            last.clear();
        } else if (code[k].kind == TokKind::Identifier) {
            last = code[k].text;
        }
    }
    if (!last.empty())
        mutexes.push_back(last);
    *i = close;
    return mutexes;
}

void
checkLockDiscipline(const DeclIndex &ix,
                    const std::vector<SourceFile> &files,
                    std::vector<Finding> *out)
{
    for (const ClassInfo &cls : ix.classes) {
        std::map<std::string, std::string> guarded;
        for (const MemberVar &m : cls.members)
            if (!m.guarded_by.empty())
                guarded[m.name] = m.guarded_by;
        if (guarded.empty())
            continue;

        for (const MemberFunc &fn : cls.methods) {
            if (!fn.hasBody() || fn.ctor_dtor)
                continue;
            const std::vector<Token> &code = files[fn.file].code;
            // (mutex, brace depth of the declaring scope); REQUIRES
            // capabilities never pop.
            std::vector<std::pair<std::string, int>> holds;
            for (const std::string &cap : fn.requires_caps)
                holds.emplace_back(cap, -1);
            int depth = 0;
            for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
                const Token &t = code[i];
                if (isPunct(t, "{")) {
                    ++depth;
                    continue;
                }
                if (isPunct(t, "}")) {
                    --depth;
                    while (!holds.empty() && holds.back().second > depth)
                        holds.pop_back();
                    continue;
                }
                if (t.kind != TokKind::Identifier)
                    continue;
                if (kLockTypes.count(t.text) &&
                    !(i > 0 && (isPunct(code[i - 1], ".") ||
                                isPunct(code[i - 1], "->")))) {
                    const std::vector<std::string> mutexes =
                        parseLockDecl(code, &i);
                    for (const std::string &mu : mutexes)
                        holds.emplace_back(mu, depth);
                    continue;
                }
                auto g = guarded.find(t.text);
                if (g == guarded.end() || !isSelfMemberRef(code, i))
                    continue;
                bool held = false;
                for (const auto &h : holds)
                    if (h.first == g->second) {
                        held = true;
                        break;
                    }
                if (!held) {
                    out->push_back(
                        {Rule::R10LockDiscipline, files[fn.file].relpath,
                         t.line,
                         "member '" + t.text + "' is guarded by '" +
                             g->second +
                             "' but accessed outside a lock scope "
                             "naming it (in " + cls.name +
                             "::" + fn.name + ")"});
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// R11: arena views escaping their epoch.
// ---------------------------------------------------------------------

bool
isViewType(const Token &t)
{
    return t.kind == TokKind::Identifier &&
           (t.text == "ImageView" || t.text == "ImageConstView");
}

void
checkViewEscape(const DeclIndex &ix,
                const std::vector<SourceFile> &files,
                std::vector<Finding> *out)
{
    std::set<std::pair<std::string, int>> seen;
    auto emit = [&](const std::string &file, int line,
                    const std::string &msg) {
        if (seen.insert({file, line}).second)
            out->push_back({Rule::R11ViewEscape, file, line, msg});
    };

    // (a) View-typed data members.
    for (const ClassInfo &cls : ix.classes) {
        if (!inAnyDir(files[cls.file].relpath, kViewScopeDirs))
            continue;
        for (const MemberVar &m : cls.members) {
            if (m.type.find(" ImageView ") == std::string::npos &&
                m.type.find(" ImageConstView ") == std::string::npos)
                continue;
            emit(files[m.file].relpath, m.line,
                 "view-typed member '" + m.name + "' of " + cls.name +
                     " outlives the arena epoch that produced it; "
                     "store an owning Image or re-derive the view "
                     "per frame");
        }
    }

    for (const SourceFile &sf : files) {
        if (!inAnyDir(sf.relpath, kViewScopeDirs))
            continue;
        const std::vector<Token> &code = sf.code;
        for (size_t i = 0; i < code.size(); ++i) {
            if (isViewType(code[i])) {
                // (b) Static view variables: `static` earlier in the
                // same statement, declarator not a function.
                bool is_static = false;
                for (size_t k = i; k-- > 0;) {
                    if (isPunct(code[k], ";") || isPunct(code[k], "{") ||
                        isPunct(code[k], "}") || isPunct(code[k], "("))
                        break;
                    if (isIdent(code[k], "static")) {
                        is_static = true;
                        break;
                    }
                }
                if (is_static && i + 1 < code.size() &&
                    code[i + 1].kind == TokKind::Identifier &&
                    !(i + 2 < code.size() && isPunct(code[i + 2], "("))) {
                    emit(sf.relpath, code[i].line,
                         "static view variable '" + code[i + 1].text +
                             "' pins an arena buffer across epochs; "
                             "views must not outlive their arena "
                             "reset");
                }
                // (c) Function returning a reference to a view:
                // `ImageView &name(` (possibly Class::name).
                if (i + 2 < code.size() && isPunct(code[i + 1], "&")) {
                    size_t j = i + 2;
                    while (j + 2 < code.size() &&
                           code[j].kind == TokKind::Identifier &&
                           isPunct(code[j + 1], "::") &&
                           code[j + 2].kind == TokKind::Identifier)
                        j += 2;
                    if (j + 1 < code.size() &&
                        code[j].kind == TokKind::Identifier &&
                        isPunct(code[j + 1], "(")) {
                        emit(sf.relpath, code[i].line,
                             "'" + code[j].text +
                                 "' returns a reference to a view; "
                                 "return the view by value (views are "
                                 "two pointers) so it cannot dangle");
                    }
                }
                continue;
            }
            // (d) Member assigned from an arena allocation:
            // `x_ = ... allocImage(...)` / `x_ = arena....alloc(...)`.
            const Token &t = code[i];
            if (t.kind != TokKind::Identifier || t.text.back() != '_' ||
                i + 1 >= code.size() || !isPunct(code[i + 1], "=") ||
                !isSelfMemberRef(code, i))
                continue;
            bool arena_named = false, alloc_call = false;
            for (size_t j = i + 2; j < code.size(); ++j) {
                if (isPunct(code[j], ";"))
                    break;
                if (code[j].kind != TokKind::Identifier)
                    continue;
                if (code[j].text == "allocImage") {
                    arena_named = alloc_call = true;
                    break;
                }
                if (code[j].text.find("arena") != std::string::npos ||
                    code[j].text.find("Arena") != std::string::npos)
                    arena_named = true;
                else if (code[j].text == "alloc" && j + 1 < code.size() &&
                         isPunct(code[j + 1], "("))
                    alloc_call = true;
            }
            if (arena_named && alloc_call) {
                emit(sf.relpath, t.line,
                     "member '" + t.text +
                         "' stores an arena allocation; it dangles at "
                         "the next epoch reset — keep arena views "
                         "frame-local");
            }
        }
    }
}

} // namespace

std::vector<Finding>
runSymbolRules(const DeclIndex &ix, const std::vector<SourceFile> &files,
               const AnalyzeOptions &opts)
{
    std::vector<Finding> out;
    if (opts.runs(Rule::R10LockDiscipline))
        checkLockDiscipline(ix, files, &out);
    if (opts.runs(Rule::R11ViewEscape))
        checkViewEscape(ix, files, &out);
    return out;
}

} // namespace detlint
} // namespace eyecod
