/**
 * @file
 * Phase 1 of detlint's two-phase analysis: the declaration index.
 *
 * detlint v1 was a per-line token scanner; the cross-file rules
 * (R10 lock-discipline, R11 view-escape) need symbols. buildIndex()
 * walks every scanned file's token stream once and records, per
 * class: the data members (with their EYECOD_GUARDED_BY annotations
 * and flattened type text), and the member-function bodies as token
 * ranges — including out-of-line `Class::method` definitions in
 * other files, matched back to the declaring class by qualifier
 * suffix.
 *
 * The index is built from the comment- and preprocessor-free token
 * stream (SourceFile::code), so `#define EYECOD_GUARDED_BY(x)` in a
 * header never parses as an annotation, while the per-line rules
 * keep running on the stream that retains preprocessor tokens.
 *
 * Like the rest of detlint this is a heuristic lexer-level parse,
 * not a compiler front end: templates, macros, and exotic declarator
 * syntax degrade to "not indexed" rather than to wrong answers, and
 * every symbol rule only fires on constructs the index understood.
 */

#ifndef EYECOD_TOOLS_DETLINT_INDEX_H
#define EYECOD_TOOLS_DETLINT_INDEX_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "findings.h"
#include "lexer.h"

namespace eyecod {
namespace detlint {

// ---------------------------------------------------------------------
// Suppressions (shared by the per-line and symbol rules).
// ---------------------------------------------------------------------

/** Rules silenced by detlint:allow comments, per file. */
struct Suppressions
{
    std::set<Rule> file_wide;
    /** line -> rules suppressed on that line. */
    std::map<int, std::set<Rule>> by_line;

    bool
    suppressed(Rule rule, int line) const
    {
        if (file_wide.count(rule))
            return true;
        auto it = by_line.find(line);
        return it != by_line.end() && it->second.count(rule) > 0;
    }
};

/** Parse "R1,warn-in-loop" (already inside parens) into rules. */
void parseRuleList(const std::string &list, std::set<Rule> *out);

/** Scan the full token stream (comments included) for
 *  detlint:allow(...) / detlint:allow-file(...) directives. */
Suppressions collectSuppressions(const std::vector<Token> &toks);

// ---------------------------------------------------------------------
// Token helpers over comment-free streams.
// ---------------------------------------------------------------------

inline bool
isPunct(const Token &t, const char *text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

inline bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

/** Index of the matching close paren for the open paren at @p open
 *  (also balances '{' and '['); toks.size() when unbalanced. */
size_t matchParen(const std::vector<Token> &toks, size_t open);

/** Index of the matching close brace for the open brace at @p open. */
size_t matchBrace(const std::vector<Token> &toks, size_t open);

// ---------------------------------------------------------------------
// The index.
// ---------------------------------------------------------------------

/** One scanned file, pre-lexed once for all phases. */
struct SourceFile
{
    std::string relpath;
    /** Comment-free stream: what the per-line rules scan. */
    std::vector<Token> toks;
    /** Comment- and preprocessor-free stream: what the index and the
     *  symbol rules walk (ranges below point into this vector). */
    std::vector<Token> code;
    Suppressions sup;
};

/** Lex @p content into a SourceFile (fills all token streams). */
SourceFile makeSourceFile(const std::string &relpath,
                          const std::string &content);

/** One data member of an indexed class. */
struct MemberVar
{
    std::string name;
    /** Flattened declaration text before the name (type + storage). */
    std::string type;
    /** Mutex expression from EYECOD_GUARDED_BY(...); empty if none. */
    std::string guarded_by;
    size_t file = 0; ///< Index into the SourceFile vector.
    int line = 0;    ///< Declaration line.
    bool is_static = false;
};

/** One member function (declaration or definition). */
struct MemberFunc
{
    std::string name;
    size_t file = 0;
    int line = 0;
    /** Body tokens [body_begin, body_end) in the file's code stream,
     *  including both braces;
     *  body_begin == body_end for a declaration without a body. */
    size_t body_begin = 0, body_end = 0;
    /** Capabilities from EYECOD_REQUIRES(...) on the signature. */
    std::vector<std::string> requires_caps;
    bool ctor_dtor = false;

    bool hasBody() const { return body_end > body_begin; }
};

/** One class/struct with its members and methods. */
struct ClassInfo
{
    /** Class-scope chain ("Outer::Inner"); namespaces excluded. */
    std::string name;
    size_t file = 0;
    int line = 0;
    std::vector<MemberVar> members;
    std::vector<MemberFunc> methods;

    const MemberVar *
    findMember(const std::string &member_name) const
    {
        for (const MemberVar &m : members)
            if (m.name == member_name)
                return &m;
        return nullptr;
    }
};

/** The repo-wide declaration index (phase 1 output). */
struct DeclIndex
{
    std::vector<ClassInfo> classes;

    /**
     * Class whose scope chain matches @p qualifier — exactly, or as
     * a trailing suffix on a "::" boundary in either direction (so
     * "BoundedFrameQueue" resolves `serve::BoundedFrameQueue::push`
     * and "Outer::Inner" resolves `Inner::method` does not). -1 when
     * no unique match exists.
     */
    int findClass(const std::string &qualifier) const;
};

/** Build the index over every file (phase 1). */
DeclIndex buildIndex(const std::vector<SourceFile> &files);

} // namespace detlint
} // namespace eyecod

#endif // EYECOD_TOOLS_DETLINT_INDEX_H
