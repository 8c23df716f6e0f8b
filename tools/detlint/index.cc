#include "index.h"

#include <sstream>

namespace eyecod {
namespace detlint {

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

void
parseRuleList(const std::string &list, std::set<Rule> *out)
{
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const size_t a = item.find_first_not_of(" \t");
        const size_t b = item.find_last_not_of(" \t");
        if (a == std::string::npos)
            continue;
        Rule rule;
        if (parseRule(item.substr(a, b - a + 1), &rule))
            out->insert(rule);
    }
}

Suppressions
collectSuppressions(const std::vector<Token> &toks)
{
    Suppressions sup;
    for (const Token &t : toks) {
        if (t.kind != TokKind::Comment)
            continue;
        for (const bool file_wide : {false, true}) {
            const std::string marker = file_wide ? "detlint:allow-file("
                                                 : "detlint:allow(";
            size_t pos = 0;
            while ((pos = t.text.find(marker, pos)) != std::string::npos) {
                const size_t open = pos + marker.size();
                const size_t close = t.text.find(')', open);
                if (close == std::string::npos)
                    break;
                std::set<Rule> rules;
                parseRuleList(t.text.substr(open, close - open), &rules);
                if (file_wide) {
                    sup.file_wide.insert(rules.begin(), rules.end());
                } else {
                    sup.by_line[t.line].insert(rules.begin(), rules.end());
                    sup.by_line[t.line + 1].insert(rules.begin(),
                                                   rules.end());
                }
                pos = close;
            }
        }
    }
    return sup;
}

// ---------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------

size_t
matchParen(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks[i], "(") || isPunct(toks[i], "{") ||
            isPunct(toks[i], "["))
            ++depth;
        else if ((isPunct(toks[i], ")") || isPunct(toks[i], "}") ||
                  isPunct(toks[i], "]")) &&
                 --depth == 0)
            return i;
    }
    return toks.size();
}

size_t
matchBrace(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (isPunct(toks[i], "{"))
            ++depth;
        else if (isPunct(toks[i], "}") && --depth == 0)
            return i;
    }
    return toks.size();
}

SourceFile
makeSourceFile(const std::string &relpath, const std::string &content)
{
    SourceFile sf;
    sf.relpath = relpath;
    const std::vector<Token> all = lex(content);
    sf.sup = collectSuppressions(all);
    sf.toks.reserve(all.size());
    for (const Token &t : all)
        if (t.kind != TokKind::Comment)
            sf.toks.push_back(t);
    sf.code.reserve(sf.toks.size());
    for (const Token &t : sf.toks)
        if (!t.preproc)
            sf.code.push_back(t);
    return sf;
}

namespace {

// ---------------------------------------------------------------------
// The declaration parser (one file at a time).
// ---------------------------------------------------------------------

/** What one statement-level parse step found. */
struct Stmt
{
    enum Kind { Var, Func, Other } kind = Other;
    std::string name;
    /** Qualifiers before a function name (out-of-line defs). */
    std::vector<std::string> qual_chain;
    std::string guarded_by;
    std::vector<std::string> requires_caps;
    std::string type; ///< Space-joined tokens before a var's name.
    bool is_static = false;
    bool tilde = false; ///< '~' seen before the name (destructor).
    size_t sig_begin = 0; ///< First token of the declaration.
    size_t body_begin = 0, body_end = 0;
    int line = 0;
    size_t next = 0; ///< Resume index after the statement.
};

/** Out-of-line `Qualifier::method` definition awaiting resolution. */
struct PendingDef
{
    std::string qualifier;
    MemberFunc fn;
};

class FileParser
{
  public:
    FileParser(const std::vector<Token> &code, size_t file_idx,
               DeclIndex *index, std::vector<PendingDef> *pending_defs)
        : t(code), file(file_idx), ix(index), pending(pending_defs)
    {
    }

    void run() { parseOuter(0, t.size()); }

  private:
    const std::vector<Token> &t;
    const size_t file;
    DeclIndex *ix;
    std::vector<PendingDef> *pending;

    /** Last identifier inside (j..close) or "" when none. */
    std::string
    lastIdentIn(size_t j, size_t close) const
    {
        std::string out;
        for (size_t k = j; k < close && k < t.size(); ++k)
            if (t[k].kind == TokKind::Identifier)
                out = t[k].text;
        return out;
    }

    /** Skip to the first top-level ';' from @p j (balances all
     *  bracket kinds); returns the index after it. */
    size_t
    skipToSemicolon(size_t j, size_t end) const
    {
        int depth = 0;
        for (; j < end; ++j) {
            if (isPunct(t[j], "(") || isPunct(t[j], "{") ||
                isPunct(t[j], "["))
                ++depth;
            else if (isPunct(t[j], ")") || isPunct(t[j], "}") ||
                     isPunct(t[j], "]"))
                --depth;
            else if (isPunct(t[j], ";") && depth <= 0)
                return j + 1;
        }
        return end;
    }

    /** Skip a `template <...>` header; @p j sits on 'template'. */
    size_t
    skipTemplateHeader(size_t j, size_t end) const
    {
        ++j;
        if (j >= end || !isPunct(t[j], "<"))
            return j;
        int angle = 0;
        for (; j < end; ++j) {
            if (isPunct(t[j], "<"))
                ++angle;
            else if (isPunct(t[j], ">") && --angle == 0)
                return j + 1;
            else if (isPunct(t[j], ">>") && (angle -= 2) <= 0)
                return j + 1;
        }
        return end;
    }

    /**
     * Parse one declaration statement starting at @p i. Handles
     * member variables (with EYECOD_GUARDED_BY), member/free
     * function declarations and definitions (with ctor init lists,
     * trailing qualifiers, and EYECOD_REQUIRES), and degrades to
     * Kind::Other on anything it cannot classify.
     */
    Stmt
    parseStatement(size_t i, size_t end) const
    {
        Stmt s;
        s.sig_begin = i;
        s.line = t[i].line;
        int angle = 0, paren = 0, bracket = 0;
        std::string last_ident;
        size_t name_tok = i;
        size_t j = i;
        size_t func_paren = size_t(-1);

        for (; j < end; ++j) {
            const Token &tok = t[j];
            if (tok.kind == TokKind::Identifier) {
                if (tok.text == "static")
                    s.is_static = true;
                if (tok.text == "operator") {
                    // operator<symbol>(params): the param list is the
                    // first '(' after the symbol — except operator()
                    // whose symbol IS "()".
                    size_t k = j + 1;
                    if (k + 1 < end && isPunct(t[k], "(") &&
                        isPunct(t[k + 1], ")"))
                        k += 2;
                    while (k < end && !isPunct(t[k], "("))
                        ++k;
                    s.name = "operator";
                    func_paren = k;
                    break;
                }
                if (tok.text.rfind("EYECOD_", 0) == 0 && j + 1 < end &&
                    isPunct(t[j + 1], "(")) {
                    const size_t close = matchParen(t, j + 1);
                    if (tok.text == "EYECOD_GUARDED_BY")
                        s.guarded_by = lastIdentIn(j + 2, close);
                    j = close; // loop ++ steps past ')'
                    continue;
                }
                if (angle == 0 && paren == 0 && bracket == 0) {
                    last_ident = tok.text;
                    name_tok = j;
                } else if (bracket > 0 || angle > 0) {
                    // [[nodiscard]] / template args: idents inside
                    // never name the declared entity.
                }
                continue;
            }
            if (tok.kind != TokKind::Punct)
                continue;
            const std::string &p = tok.text;
            if (p == "<") {
                ++angle;
            } else if (p == ">") {
                if (angle > 0)
                    --angle;
            } else if (p == ">>") {
                if (angle > 0)
                    angle = angle >= 2 ? angle - 2 : 0;
            } else if (p == "[") {
                ++bracket;
            } else if (p == "]") {
                if (bracket > 0)
                    --bracket;
            } else if (p == "~") {
                s.tilde = true;
            } else if (p == "(") {
                if (angle == 0 && bracket == 0 && paren == 0) {
                    func_paren = j;
                    break;
                }
                ++paren;
            } else if (p == ")") {
                if (paren > 0)
                    --paren;
            } else if (angle == 0 && paren == 0 && bracket == 0) {
                if (p == "=") {
                    s.kind = Stmt::Var;
                    s.name = last_ident;
                    s.type = joined(s.sig_begin, name_tok);
                    s.next = skipToSemicolon(j, end);
                    return s;
                }
                if (p == "{") {
                    // Brace-initialized variable: `atomic<T> x{v};`.
                    s.kind = Stmt::Var;
                    s.name = last_ident;
                    s.type = joined(s.sig_begin, name_tok);
                    s.next = skipToSemicolon(matchBrace(t, j), end);
                    return s;
                }
                if (p == ";" || p == ":") {
                    // Plain declaration (or bitfield at ':').
                    s.kind = last_ident.empty() ? Stmt::Other : Stmt::Var;
                    s.name = last_ident;
                    s.type = joined(s.sig_begin, name_tok);
                    s.next = p == ";" ? j + 1 : skipToSemicolon(j, end);
                    return s;
                }
            }
        }
        if (func_paren == size_t(-1) || func_paren >= end) {
            s.kind = Stmt::Other;
            s.next = end;
            return s;
        }
        return parseFunctionTail(s, func_paren, end);
    }

    std::string
    joined(size_t begin, size_t end_tok) const
    {
        std::string out = " ";
        for (size_t k = begin; k < end_tok && k < t.size(); ++k) {
            out += t[k].text;
            out += ' ';
        }
        return out;
    }

    /** Finish parsing a function once its parameter list is found. */
    Stmt
    parseFunctionTail(Stmt s, size_t func_paren, size_t end) const
    {
        const size_t close = matchParen(t, func_paren);
        // Name and qualifier chain, walking back from the '('.
        size_t k = func_paren;
        if (s.name != "operator") {
            if (func_paren == 0 ||
                t[func_paren - 1].kind != TokKind::Identifier) {
                // Function-pointer declarator or similar; skip it.
                s.kind = Stmt::Other;
                s.next = skipToSemicolon(close, end);
                return s;
            }
            s.name = t[func_paren - 1].text;
            k = func_paren - 1;
        } else {
            // Walk back over the operator's symbol tokens.
            k = func_paren;
            while (k > 0 && !isIdent(t[k - 1], "operator"))
                --k;
            if (k > 0)
                --k; // onto 'operator'
        }
        if (k > 0 && isPunct(t[k - 1], "~")) {
            s.tilde = true;
            --k;
        }
        while (k >= 2 && isPunct(t[k - 1], "::") &&
               t[k - 2].kind == TokKind::Identifier) {
            s.qual_chain.insert(s.qual_chain.begin(), t[k - 2].text);
            k -= 2;
        }

        s.kind = Stmt::Func;
        size_t j = close + 1;
        while (j < end) {
            const Token &tok = t[j];
            if (tok.kind == TokKind::Identifier) {
                if (tok.text.rfind("EYECOD_", 0) == 0 && j + 1 < end &&
                    isPunct(t[j + 1], "(")) {
                    const size_t c2 = matchParen(t, j + 1);
                    if (tok.text == "EYECOD_REQUIRES") {
                        for (size_t m = j + 2; m < c2; ++m)
                            if (t[m].kind == TokKind::Identifier)
                                s.requires_caps.push_back(t[m].text);
                    }
                    j = c2 + 1;
                    continue;
                }
                ++j; // const / noexcept / override / final / ...
                continue;
            }
            if (isPunct(tok, "(")) {
                j = matchParen(t, j) + 1; // noexcept(...)
                continue;
            }
            if (isPunct(tok, ";")) {
                s.next = j + 1;
                return s;
            }
            if (isPunct(tok, "=")) {
                // = default / = delete / = 0.
                s.next = skipToSemicolon(j, end);
                return s;
            }
            if (isPunct(tok, ":")) {
                // Constructor init list: `name(args)` or `name{args}`
                // entries separated by commas, then the body brace.
                ++j;
                while (j < end) {
                    while (j < end && !isPunct(t[j], "(") &&
                           !isPunct(t[j], "{"))
                        ++j;
                    if (j >= end)
                        break;
                    if (isPunct(t[j], "{") &&
                        (j == 0 || (!isPunct(t[j - 1], ")") &&
                                    t[j - 1].kind != TokKind::Identifier &&
                                    !isPunct(t[j - 1], ">"))))
                        break; // defensive: not an init entry
                    const bool entry_paren = isPunct(t[j], "(");
                    const size_t c2 = entry_paren ? matchParen(t, j)
                                                  : matchBrace(t, j);
                    if (!entry_paren &&
                        !(j > 0 &&
                          t[j - 1].kind == TokKind::Identifier))
                        break; // `{` not preceded by a member name:
                               // this is the body brace
                    j = c2 + 1;
                    if (j < end && isPunct(t[j], ","))
                        ++j;
                    else
                        break;
                }
                continue;
            }
            if (isPunct(tok, "{")) {
                s.body_begin = j;
                s.body_end = matchBrace(t, j) + 1;
                s.next = s.body_end;
                if (s.next < end && isPunct(t[s.next], ";"))
                    ++s.next;
                return s;
            }
            ++j; // -> & * && ...
        }
        s.next = end;
        return s;
    }

    /**
     * True when the token at @p i opens a class/struct *definition*
     * (not an elaborated type specifier or forward declaration);
     * fills the name and the index of the '{'.
     */
    bool
    classHead(size_t i, size_t end, std::string *name,
              size_t *body_open) const
    {
        size_t j = i + 1;
        std::string last;
        while (j < end) {
            const Token &tok = t[j];
            if (tok.kind == TokKind::Identifier) {
                if (tok.text.rfind("EYECOD_", 0) == 0 && j + 1 < end &&
                    isPunct(t[j + 1], "(")) {
                    j = matchParen(t, j + 1) + 1;
                    continue;
                }
                if (tok.text != "final" && tok.text != "alignas")
                    last = tok.text;
                ++j;
                continue;
            }
            if (isPunct(tok, "[") || isPunct(tok, "(")) {
                j = matchParen(t, j) + 1; // attributes / alignas(...)
                continue;
            }
            if (isPunct(tok, "{")) {
                *name = last;
                *body_open = j;
                return !last.empty();
            }
            if (isPunct(tok, ":")) {
                // Base clause: the body brace follows at depth 0.
                int depth = 0;
                for (++j; j < end; ++j) {
                    if (isPunct(t[j], "(") || isPunct(t[j], "["))
                        ++depth;
                    else if (isPunct(t[j], ")") || isPunct(t[j], "]"))
                        --depth;
                    else if (isPunct(t[j], "{") && depth == 0) {
                        *name = last;
                        *body_open = j;
                        return !last.empty();
                    } else if (isPunct(t[j], ";") && depth == 0) {
                        return false;
                    }
                }
                return false;
            }
            if (isPunct(tok, ";"))
                return false; // forward declaration
            if (isPunct(tok, "::")) {
                ++j; // qualified name continues
                continue;
            }
            if (isPunct(tok, "<")) {
                // Specialization args: skip the angle group.
                int angle = 0;
                for (; j < end; ++j) {
                    if (isPunct(t[j], "<"))
                        ++angle;
                    else if (isPunct(t[j], ">") && --angle == 0)
                        break;
                    else if (isPunct(t[j], ">>") && (angle -= 2) <= 0)
                        break;
                }
                ++j;
                continue;
            }
            return false; // `class X *p;` and other elaborated uses
        }
        return false;
    }

    void
    parseOuter(size_t i, size_t end)
    {
        while (i < end) {
            const Token &tok = t[i];
            if (tok.kind == TokKind::Identifier) {
                if (tok.text == "namespace") {
                    size_t j = i + 1;
                    while (j < end && !isPunct(t[j], "{") &&
                           !isPunct(t[j], ";") && !isPunct(t[j], "="))
                        ++j;
                    if (j < end && isPunct(t[j], "{")) {
                        const size_t close = matchBrace(t, j);
                        parseOuter(j + 1, close);
                        i = close + 1;
                    } else {
                        i = skipToSemicolon(j, end);
                    }
                    continue;
                }
                if (tok.text == "template") {
                    i = skipTemplateHeader(i, end);
                    continue;
                }
                if ((tok.text == "class" || tok.text == "struct") &&
                    !(i > 0 && isIdent(t[i - 1], "enum"))) {
                    std::string name;
                    size_t body_open = 0;
                    if (classHead(i, end, &name, &body_open)) {
                        const size_t close = matchBrace(t, body_open);
                        registerClass(name, tok.line, body_open + 1,
                                      close);
                        i = skipToSemicolon(close, end);
                    } else {
                        i = skipToSemicolon(i, end);
                    }
                    continue;
                }
                if (tok.text == "enum" || tok.text == "using" ||
                    tok.text == "typedef" ||
                    tok.text == "static_assert") {
                    i = skipToSemicolon(i, end);
                    continue;
                }
            }
            if (tok.kind == TokKind::Punct &&
                (tok.text == ";" || tok.text == "}" ||
                 tok.text == "{")) {
                ++i; // stray separators / extern "C" braces
                continue;
            }
            const Stmt s = parseStatement(i, end);
            if (s.kind == Stmt::Func && s.body_end > s.body_begin) {
                MemberFunc fn;
                fn.name = s.name;
                fn.file = file;
                fn.line = s.line;
                fn.body_begin = s.body_begin;
                fn.body_end = s.body_end;
                fn.requires_caps = s.requires_caps;
                fn.ctor_dtor = s.tilde;
                if (!s.qual_chain.empty()) {
                    PendingDef pd;
                    for (const std::string &q : s.qual_chain) {
                        if (!pd.qualifier.empty())
                            pd.qualifier += "::";
                        pd.qualifier += q;
                    }
                    pd.fn = fn;
                    pending->push_back(pd);
                }
            }
            i = s.next > i ? s.next : i + 1;
        }
    }

    void
    registerClass(const std::string &name, int line, size_t body_begin,
                  size_t body_end)
    {
        registerClassChained(name, "", line, body_begin, body_end);
    }

    void
    registerClassChained(const std::string &name,
                         const std::string &parent_chain, int line,
                         size_t body_begin, size_t body_end)
    {
        ClassInfo cls;
        cls.name = parent_chain.empty() ? name
                                        : parent_chain + "::" + name;
        cls.file = file;
        cls.line = line;
        ix->classes.push_back(cls);
        const size_t cls_idx = ix->classes.size() - 1;
        parseClassBody(cls_idx, name, body_begin, body_end);
    }

    void
    parseClassBody(size_t cls_idx, const std::string &class_name,
                   size_t i, size_t end)
    {
        while (i < end) {
            const Token &tok = t[i];
            if (tok.kind == TokKind::Identifier) {
                if ((tok.text == "public" || tok.text == "private" ||
                     tok.text == "protected") &&
                    i + 1 < end && isPunct(t[i + 1], ":")) {
                    i += 2;
                    continue;
                }
                if (tok.text == "using" || tok.text == "friend" ||
                    tok.text == "typedef" ||
                    tok.text == "static_assert") {
                    i = skipToSemicolon(i, end);
                    continue;
                }
                if (tok.text == "template") {
                    i = skipTemplateHeader(i, end);
                    continue;
                }
                if ((tok.text == "class" || tok.text == "struct") &&
                    !(i > 0 && isIdent(t[i - 1], "enum"))) {
                    std::string name;
                    size_t body_open = 0;
                    if (classHead(i, end, &name, &body_open)) {
                        const size_t close = matchBrace(t, body_open);
                        const std::string chain =
                            ix->classes[cls_idx].name;
                        registerClassChained(name, chain, tok.line,
                                             body_open + 1, close);
                        i = skipToSemicolon(close, end);
                    } else {
                        i = skipToSemicolon(i, end);
                    }
                    continue;
                }
                if (tok.text == "enum") {
                    i = skipToSemicolon(i, end);
                    continue;
                }
            }
            if (tok.kind == TokKind::Punct &&
                (tok.text == ";" || tok.text == "}")) {
                ++i;
                continue;
            }
            const Stmt s = parseStatement(i, end);
            if (s.kind == Stmt::Var && !s.name.empty()) {
                MemberVar mv;
                mv.name = s.name;
                mv.type = s.type;
                mv.guarded_by = s.guarded_by;
                mv.file = file;
                mv.line = s.line;
                mv.is_static = s.is_static;
                ix->classes[cls_idx].members.push_back(mv);
            } else if (s.kind == Stmt::Func) {
                MemberFunc fn;
                fn.name = s.name;
                fn.file = file;
                fn.line = s.line;
                fn.body_begin = s.body_begin;
                fn.body_end = s.body_end;
                fn.requires_caps = s.requires_caps;
                fn.ctor_dtor = s.tilde || s.name == class_name;
                ix->classes[cls_idx].methods.push_back(fn);
            }
            i = s.next > i ? s.next : i + 1;
        }
    }
};

} // namespace

int
DeclIndex::findClass(const std::string &qualifier) const
{
    int found = -1;
    for (size_t c = 0; c < classes.size(); ++c) {
        const std::string &name = classes[c].name;
        const bool match =
            name == qualifier ||
            (qualifier.size() > name.size() + 2 &&
             qualifier.compare(qualifier.size() - name.size() - 2, 2,
                               "::") == 0 &&
             qualifier.compare(qualifier.size() - name.size(),
                               name.size(), name) == 0) ||
            (name.size() > qualifier.size() + 2 &&
             name.compare(name.size() - qualifier.size() - 2, 2,
                          "::") == 0 &&
             name.compare(name.size() - qualifier.size(),
                          qualifier.size(), qualifier) == 0);
        if (!match)
            continue;
        if (found >= 0)
            return -1; // ambiguous
        found = int(c);
    }
    return found;
}

DeclIndex
buildIndex(const std::vector<SourceFile> &files)
{
    DeclIndex ix;
    std::vector<PendingDef> pending;
    for (size_t f = 0; f < files.size(); ++f) {
        FileParser parser(files[f].code, f, &ix, &pending);
        parser.run();
    }
    // Resolve out-of-line `Class::method` definitions now that every
    // class from every file is known.
    for (PendingDef &pd : pending) {
        const int c = ix.findClass(pd.qualifier);
        if (c < 0)
            continue;
        ClassInfo &cls = ix.classes[size_t(c)];
        const size_t sep = cls.name.rfind("::");
        const std::string base =
            sep == std::string::npos ? cls.name : cls.name.substr(sep + 2);
        pd.fn.ctor_dtor = pd.fn.ctor_dtor || pd.fn.name == base;
        cls.methods.push_back(pd.fn);
    }
    return ix;
}

} // namespace detlint
} // namespace eyecod
