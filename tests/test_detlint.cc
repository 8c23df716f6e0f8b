/**
 * @file
 * detlint rule-engine tests.
 *
 * Each rule gets a failing fixture (every seeded violation must
 * be caught, at its exact line) and a passing fixture (idiomatic
 * deterministic code plus near-miss identifiers must stay silent).
 * R1-R9 are per-line token rules; R10 and R11 run over the phase-2
 * declaration index (see index.h / symbol_rules.h) and are additionally
 * exercised across files via analyzeSources().
 * Scoping is exercised by re-analyzing the same fixture under a
 * different pretend path: what is a violation in src/serve/ is legal
 * in bench/. Fixtures live in tools/detlint/fixtures/ and are also
 * human-runnable: `detlint tools/detlint/fixtures` reproduces the
 * failing findings from a shell.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "findings.h"
#include "header_check.h"
#include "rules.h"

namespace eyecod {
namespace detlint {
namespace {

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(DETLINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Analyze fixture @p name as if it lived at @p scoped_path. */
std::vector<Finding>
runOn(const std::string &name, const std::string &scoped_path,
      const AnalyzeOptions &opts = {})
{
    return analyzeSource(scoped_path, readFixture(name), opts);
}

/** (rule, line) pairs, in emission order. */
std::vector<std::pair<Rule, int>>
ruleLines(const std::vector<Finding> &findings)
{
    std::vector<std::pair<Rule, int>> out;
    for (const Finding &f : findings)
        out.emplace_back(f.rule, f.line);
    return out;
}

using RL = std::vector<std::pair<Rule, int>>;

TEST(DetlintR1, FailingFixtureCaughtAtExactLines)
{
    const auto got = ruleLines(runOn("r1_fail.cc", "src/nn/r1_fail.cc"));
    const RL want = {{Rule::R1UnseededRng, 9},
                     {Rule::R1UnseededRng, 10},
                     {Rule::R1UnseededRng, 13}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR1, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r1_pass.cc", "src/nn/r1_pass.cc").empty());
}

TEST(DetlintR1, RngHeaderItselfIsExempt)
{
    // The engine the Rng wraps must not flag inside its own home.
    EXPECT_TRUE(
        analyzeSource("src/common/rng.h", "std::mt19937_64 engine_;")
            .empty());
    EXPECT_EQ(
        analyzeSource("src/common/image.h", "std::mt19937_64 engine_;")
            .size(),
        1u);
}

TEST(DetlintR2, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r2_fail.cc", "src/serve/r2_fail.cc"));
    const RL want = {{Rule::R2WallClock, 9},
                     {Rule::R2WallClock, 10},
                     {Rule::R2WallClock, 11},
                     {Rule::R2WallClock, 14}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR2, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r2_pass.cc", "src/serve/r2_pass.cc").empty());
}

TEST(DetlintR2, BenchDirectoryMayReadClocks)
{
    // Identical source, bench/ scope: wall-clock and steady_clock are
    // both legal where real elapsed time is the measurement.
    EXPECT_TRUE(runOn("r2_fail.cc", "bench/r2_fail.cc").empty());
}

TEST(DetlintR2, ThreadPoolMayReadSteadyClockOnly)
{
    EXPECT_TRUE(analyzeSource("src/common/thread_pool.cc",
                              "auto t0 = steady_clock::now();")
                    .empty());
    EXPECT_EQ(analyzeSource("src/common/stats.cc",
                            "auto t0 = steady_clock::now();")
                  .size(),
              1u);
}

TEST(DetlintR3, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r3_fail.cc", "src/accel/r3_fail.cc"));
    const RL want = {{Rule::R3UnorderedIter, 10},
                     {Rule::R3UnorderedIter, 12}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR3, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r3_pass.cc", "src/accel/r3_pass.cc").empty());
}

TEST(DetlintR4, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r4_fail.cc", "src/accel/r4_fail.cc"));
    const RL want = {{Rule::R4HotPathThrow, 10},
                     {Rule::R4HotPathThrow, 11}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR4, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r4_pass.cc", "src/accel/r4_pass.cc").empty());
}

TEST(DetlintR4, ThrowLegalOutsideHotPathsButDiscardIsNot)
{
    // tests/ may throw (gtest does); a dropped checked result is
    // still a defect everywhere.
    const auto got = ruleLines(runOn("r4_fail.cc", "tests/r4_fail.cc"));
    const RL want = {{Rule::R4HotPathThrow, 11}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR5, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r5_fail.cc", "src/serve/r5_fail.cc"));
    const RL want = {{Rule::R5WarnInLoop, 9}, {Rule::R5WarnInLoop, 13}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR5, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r5_pass.cc", "src/serve/r5_pass.cc").empty());
}

TEST(DetlintR6, FailingFixtureCaughtAtExactLines)
{
    const auto got = ruleLines(runOn("r6_fail.cc", "src/nn/r6_fail.cc"));
    const RL want = {{Rule::R6FloatReduction, 10},
                     {Rule::R6FloatReduction, 11},
                     {Rule::R6FloatReduction, 11}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR6, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r6_pass.cc", "src/nn/r6_pass.cc").empty());
}

TEST(DetlintR7, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r7_fail.cc", "src/eyetrack/r7_fail.cc"));
    const RL want = {{Rule::R7ImageCopy, 8},
                     {Rule::R7ImageCopy, 17},
                     {Rule::R7ImageCopy, 17},
                     {Rule::R7ImageCopy, 19}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR7, PassingFixtureIsSilent)
{
    EXPECT_TRUE(
        runOn("r7_pass.cc", "src/eyetrack/r7_pass.cc").empty());
}

TEST(DetlintR7, OnlyFrameSpineDirectoriesAreScoped)
{
    // The same by-value code is legal off the frame spine (training
    // utilities, tests, common) where frame copies are not hot.
    EXPECT_TRUE(
        runOn("r7_fail.cc", "src/common/r7_fail.cc").empty());
    EXPECT_TRUE(runOn("r7_fail.cc", "tests/r7_fail.cc").empty());
}

TEST(DetlintR8, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r8_fail.cc", "src/serve/r8_fail.cc"));
    const RL want = {{Rule::R8UnboundedPushBack, 17},
                     {Rule::R8UnboundedPushBack, 18},
                     {Rule::R8UnboundedPushBack, 19}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR8, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r8_pass.cc", "src/serve/r8_pass.cc").empty());
}

TEST(DetlintR8, OnlyServeDirectoryIsScoped)
{
    // Member-container growth off the per-frame serving path (e.g.
    // dataset builders, tests) is routine and stays legal.
    EXPECT_TRUE(runOn("r8_fail.cc", "src/dataset/r8_fail.cc").empty());
    EXPECT_TRUE(runOn("r8_fail.cc", "tests/r8_fail.cc").empty());
}

TEST(DetlintR8, AllowCommentNamesTheBoundAndSuppresses)
{
    const std::string ok =
        "// detlint:allow(R8) bounded by drop_log_cap_\n"
        "void f(Engine &e) { e.drop_log_.push_back(1); }\n";
    EXPECT_TRUE(analyzeSource("src/serve/f.cc", ok).empty());
    const std::string bad =
        "void f(Engine &e) { e.drop_log_.push_back(1); }\n";
    const auto got = ruleLines(analyzeSource("src/serve/f.cc", bad));
    const RL want = {{Rule::R8UnboundedPushBack, 1}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR9, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r9_fail.cc", "src/common/snapshot_bad.cc"));
    const RL want = {{Rule::R9RawMemcpySerialize, 16},
                     {Rule::R9RawMemcpySerialize, 17},
                     {Rule::R9RawMemcpySerialize, 23}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR9, PassingFixtureIsSilent)
{
    EXPECT_TRUE(
        runOn("r9_pass.cc", "src/common/snapshot_ok.cc").empty());
}

TEST(DetlintR9, MemberNamedMemcpyIsNotTheCRoutine)
{
    EXPECT_TRUE(analyzeSource("src/common/snapshot.cc",
                              "void f(Codec &c) { c.memcpy(0); }")
                    .empty());
}

TEST(DetlintR9, OnlySnapshotFilesAreScoped)
{
    // The identical raw-copy code is legal outside the snapshot
    // format's blast radius (kernels, pools, tests).
    EXPECT_TRUE(runOn("r9_fail.cc", "src/common/codec.cc").empty());
    EXPECT_TRUE(runOn("r9_fail.cc", "src/accel/r9_fail.cc").empty());
}

TEST(DetlintR9, AllowCommentNamesTheReasonAndSuppresses)
{
    const std::string ok =
        "// detlint:allow(R9) opaque pixel rows, extent-checked\n"
        "void f(char *d, const char *s) { memcpy(d, s, 8); }\n";
    EXPECT_TRUE(analyzeSource("src/common/snapshot.cc", ok).empty());
    const std::string bad =
        "void f(char *d, const char *s) { memcpy(d, s, 8); }\n";
    const auto got =
        ruleLines(analyzeSource("src/common/snapshot.cc", bad));
    const RL want = {{Rule::R9RawMemcpySerialize, 1}};
    EXPECT_EQ(got, want);
}

TEST(DetlintSuppression, AllThreeFormsSilenceFindings)
{
    // Same-line, previous-line, and file-wide allow comments: the
    // fixture carries R5 and R6 violations and must report nothing.
    EXPECT_TRUE(runOn("suppressed.cc", "src/nn/suppressed.cc").empty());
}

TEST(DetlintSuppression, AllowDoesNotLeakToOtherRules)
{
    const std::string src = "// detlint:allow(R5)\n"
                            "int x = rand();\n";
    const auto got = ruleLines(analyzeSource("src/nn/f.cc", src));
    const RL want = {{Rule::R1UnseededRng, 2}};
    EXPECT_EQ(got, want);
}

TEST(DetlintLexer, StringsAndCommentsNeverFlag)
{
    const std::string src =
        "// rand() in a comment\n"
        "/* std::system_clock in a block comment */\n"
        "const char *s = \"rand() steady_clock throw\";\n"
        "const char *raw = R\"(std::reduce(a, b))\";\n";
    EXPECT_TRUE(analyzeSource("src/accel/f.cc", src).empty());
}

TEST(DetlintLexer, IncludeDirectivesNeverFlag)
{
    const std::string src = "#include <random>\n#include <ctime>\n";
    EXPECT_TRUE(analyzeSource("src/nn/f.cc", src).empty());
}

TEST(DetlintOptions, RuleFilterRestrictsAnalysis)
{
    AnalyzeOptions only_r1;
    only_r1.enabled = {Rule::R1UnseededRng};
    EXPECT_TRUE(
        runOn("r2_fail.cc", "src/serve/r2_fail.cc", only_r1).empty());
    EXPECT_EQ(
        runOn("r1_fail.cc", "src/nn/r1_fail.cc", only_r1).size(), 3u);
}

TEST(DetlintR10, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r10_fail.cc", "src/serve/r10_fail.cc"));
    // Line 16: read with no lock held; line 22: write before the lock
    // is taken ("lock taken too late").
    const RL want = {{Rule::R10LockDiscipline, 16},
                     {Rule::R10LockDiscipline, 22}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR10, PassingFixtureIsSilent)
{
    EXPECT_TRUE(runOn("r10_pass.cc", "src/serve/r10_pass.cc").empty());
}

TEST(DetlintR10, AnnotationDrivenNotDirScoped)
{
    // R10 follows EYECOD_GUARDED_BY annotations, not directories: the
    // same defects are caught under any pretend path.
    const auto got =
        ruleLines(runOn("r10_fail.cc", "tools/dse/r10_fail.cc"));
    const RL want = {{Rule::R10LockDiscipline, 16},
                     {Rule::R10LockDiscipline, 22}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR10, AllowCommentSuppresses)
{
    const std::string src =
        "struct S\n"
        "{\n"
        "    Mutex mu_;\n"
        "    long v_ EYECOD_GUARDED_BY(mu_) = 0;\n"
        "    // detlint:allow(R10) callers serialize startup externally\n"
        "    long peek() const { return v_; }\n"
        "};\n";
    EXPECT_TRUE(analyzeSource("src/serve/s.h", src).empty());
}

TEST(DetlintR10, CrossFileMethodBodiesAreIndexed)
{
    // The guarded member is declared in a header; the method touching
    // it lives out-of-line in a .cc. Only a repo-wide index pairs them.
    const std::string header =
        "class Meter\n"
        "{\n"
        "  public:\n"
        "    long read() const;\n"
        "    long locked() const;\n"
        "\n"
        "  private:\n"
        "    mutable Mutex mu_;\n"
        "    long ticks_ EYECOD_GUARDED_BY(mu_) = 0;\n"
        "};\n";
    const std::string impl =
        "long\n"
        "Meter::locked() const\n"
        "{\n"
        "    MutexLock lock(mu_);\n"
        "    return ticks_;\n"
        "}\n"
        "\n"
        "long\n"
        "Meter::read() const\n"
        "{\n"
        "    return ticks_;\n"
        "}\n";
    const auto findings = analyzeSources(
        {{"src/serve/meter.h", header}, {"src/serve/meter.cc", impl}});
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::R10LockDiscipline);
    EXPECT_EQ(findings[0].file, "src/serve/meter.cc");
    EXPECT_EQ(findings[0].line, 11); // read(): no lock held
}

TEST(DetlintR11, FailingFixtureCaughtAtExactLines)
{
    const auto got =
        ruleLines(runOn("r11_fail.cc", "src/eyetrack/r11_fail.cc"));
    // Line 3: static view; line 5: reference-returning accessor;
    // line 12: member assigned an arena allocation; line 15:
    // view-typed member.
    const RL want = {{Rule::R11ViewEscape, 3},
                     {Rule::R11ViewEscape, 5},
                     {Rule::R11ViewEscape, 12},
                     {Rule::R11ViewEscape, 15}};
    EXPECT_EQ(got, want);
}

TEST(DetlintR11, PassingFixtureIsSilent)
{
    EXPECT_TRUE(
        runOn("r11_pass.cc", "src/eyetrack/r11_pass.cc").empty());
}

TEST(DetlintR11, OnlyFrameSpineDirectoriesAreScoped)
{
    // View lifetimes are an arena-epoch concern; code outside the
    // frame spine does not hold arena views.
    EXPECT_TRUE(runOn("r11_fail.cc", "src/common/r11_fail.cc").empty());
    EXPECT_TRUE(runOn("r11_fail.cc", "tests/r11_fail.cc").empty());
}

TEST(DetlintR11, AllowCommentSuppresses)
{
    const std::string src =
        "struct T\n"
        "{\n"
        "    // detlint:allow(R11) rebound every frame by bindViews()\n"
        "    ImageView staging_;\n"
        "};\n";
    EXPECT_TRUE(analyzeSource("src/eyetrack/t.h", src).empty());
}

TEST(DetlintTree, FixtureDirectoryReproducesFindings)
{
    // Tree scan rooted at the fixture dir: rules that scope to all
    // files (R1, R4-discard, R5) must reproduce their findings with
    // repo-relative paths.
    const auto findings =
        analyzeTree(DETLINT_FIXTURE_DIR, {"r1_fail.cc", "r5_fail.cc"});
    const auto got = ruleLines(findings);
    const RL want = {{Rule::R1UnseededRng, 9},
                     {Rule::R1UnseededRng, 10},
                     {Rule::R1UnseededRng, 13},
                     {Rule::R5WarnInLoop, 9},
                     {Rule::R5WarnInLoop, 13}};
    EXPECT_EQ(got, want);
    for (const Finding &f : findings)
        EXPECT_TRUE(f.file == "r1_fail.cc" || f.file == "r5_fail.cc")
            << f.file;
}

TEST(DetlintH1, OnlyTheHeaderMissingAnIncludeIsReported)
{
    HeaderCheckOptions opts;
    opts.cxx = DETLINT_CXX;
    int checked = 0;
    const auto findings = checkHeaders(
        DETLINT_FIXTURE_DIR, {"h1_pass.h", "h1_fail.h"}, opts, &checked);
    EXPECT_EQ(checked, 2);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, Rule::H1HeaderSelfContained);
    EXPECT_EQ(findings[0].file, "h1_fail.h");
}

TEST(DetlintOutput, JsonIsMachineReadableAndStable)
{
    std::vector<Finding> findings = {
        {Rule::R5WarnInLoop, "src/serve/engine.cc", 42, "msg \"a\""},
    };
    std::ostringstream os;
    emitJson(findings, os);
    const std::string want =
        "{\n  \"findings\": [\n"
        "    {\"file\": \"src/serve/engine.cc\", \"line\": 42, "
        "\"rule\": \"R5\", \"name\": \"warn-in-loop\", "
        "\"message\": \"msg \\\"a\\\"\"}\n"
        "  ],\n  \"count\": 1\n}\n";
    EXPECT_EQ(os.str(), want);

    std::ostringstream empty;
    emitJson({}, empty);
    EXPECT_EQ(empty.str(), "{\n  \"findings\": [],\n  \"count\": 0\n}\n");
}

TEST(DetlintOutput, RuleIdsAndNamesRoundTrip)
{
    for (Rule r : {Rule::R1UnseededRng, Rule::R2WallClock,
                   Rule::R3UnorderedIter, Rule::R4HotPathThrow,
                   Rule::R5WarnInLoop, Rule::R6FloatReduction,
                   Rule::R7ImageCopy, Rule::R8UnboundedPushBack,
                   Rule::R9RawMemcpySerialize,
                   Rule::R10LockDiscipline, Rule::R11ViewEscape,
                   Rule::H1HeaderSelfContained}) {
        Rule parsed;
        ASSERT_TRUE(parseRule(ruleId(r), &parsed));
        EXPECT_EQ(parsed, r);
        ASSERT_TRUE(parseRule(ruleName(r), &parsed));
        EXPECT_EQ(parsed, r);
    }
    Rule ignored;
    EXPECT_FALSE(parseRule("R99", &ignored));
}

} // namespace
} // namespace detlint
} // namespace eyecod
