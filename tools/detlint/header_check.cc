#include "header_check.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace fs = std::filesystem;

namespace eyecod {
namespace detlint {

namespace {

/** Shell-quote a path for the compiler command line. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

/** First non-empty line of @p text, trimmed. */
std::string
firstLine(const std::string &text)
{
    size_t start = text.find_first_not_of(" \t\n\r");
    if (start == std::string::npos)
        return "";
    size_t end = text.find('\n', start);
    return text.substr(start, end == std::string::npos ? std::string::npos
                                                       : end - start);
}

} // namespace

std::vector<Finding>
checkHeaders(const std::string &repo_root,
             const std::vector<std::string> &roots,
             const HeaderCheckOptions &opts, int *checked)
{
    // Absolute, because each probe TU lives in the temp directory and
    // a quoted include resolves relative to the including file.
    const fs::path base = fs::absolute(
        repo_root.empty() ? fs::current_path() : fs::path(repo_root));
    std::string cxx = opts.cxx;
    if (cxx.empty()) {
        const char *env = std::getenv("CXX");
        cxx = (env && *env) ? env : "c++";
    }

    std::vector<fs::path> headers;
    for (const std::string &root : roots) {
        fs::path p(root);
        if (p.is_relative())
            p = base / p;
        std::error_code ec;
        if (fs::is_regular_file(p, ec)) {
            headers.push_back(p);
            continue;
        }
        if (!fs::is_directory(p, ec))
            continue;
        for (fs::recursive_directory_iterator it(p, ec), end;
             it != end && !ec; it.increment(ec)) {
            const std::string name = it->path().filename().string();
            if (it->is_directory() &&
                (name == "build" || name == ".git" || name == "fixtures")) {
                it.disable_recursion_pending();
                continue;
            }
            const std::string ext = it->path().extension().string();
            if (it->is_regular_file() && (ext == ".h" || ext == ".hpp"))
                headers.push_back(it->path());
        }
    }

    const fs::path tmp_dir =
        fs::temp_directory_path() / "detlint_header_check";
    std::error_code ec;
    fs::create_directories(tmp_dir, ec);
    const fs::path tu = tmp_dir / "tu.cc";
    const fs::path diag = tmp_dir / "diag.txt";

    std::vector<Finding> findings;
    int count = 0;
    for (const fs::path &header : headers) {
        {
            std::ofstream out(tu);
            out << "#include \"" << header.generic_string() << "\"\n";
        }
        std::string cmd = shellQuote(cxx) + " " + opts.std_flag +
                          " -fsyntax-only -x c++";
        for (const std::string &inc : opts.include_dirs)
            cmd += " -I " + shellQuote(inc);
        cmd += " " + shellQuote(tu.string()) + " > " +
               shellQuote(diag.string()) + " 2>&1";
        const int rc = std::system(cmd.c_str());
        ++count;
        if (rc == 0)
            continue;

        std::ifstream in(diag);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        fs::path rel = fs::relative(header, base, ec);
        const std::string relpath = (ec || rel.empty())
                                        ? header.generic_string()
                                        : rel.generic_string();
        findings.push_back(
            {Rule::H1HeaderSelfContained, relpath, 1,
             "header is not self-contained: " + firstLine(text)});
    }
    if (checked)
        *checked = count;
    sortFindings(&findings);
    return findings;
}

} // namespace detlint
} // namespace eyecod
