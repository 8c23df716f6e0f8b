/**
 * @file
 * PerfJson tests: the mergeable {"section": {"metric": number}}
 * store shared by the perf-emitting benchmarks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/perf_json.h"

using eyecod::PerfJson;

namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

TEST(PerfJson, RoundTripsThroughDisk)
{
    const std::string path = tempPath("perf_roundtrip.json");
    std::remove(path.c_str());

    PerfJson store;
    store.set("runtime", "serial_ms", 12.5);
    store.set("runtime", "threaded_ms", 4.25);
    store.set("stages", "segmentation", 1e-3);
    ASSERT_TRUE(store.write(path));

    const PerfJson loaded = PerfJson::load(path);
    EXPECT_EQ(loaded.numSections(), 2u);
    EXPECT_TRUE(loaded.has("runtime", "serial_ms"));
    EXPECT_DOUBLE_EQ(loaded.get("runtime", "serial_ms"), 12.5);
    EXPECT_DOUBLE_EQ(loaded.get("runtime", "threaded_ms"), 4.25);
    EXPECT_DOUBLE_EQ(loaded.get("stages", "segmentation"), 1e-3);
    std::remove(path.c_str());
}

TEST(PerfJson, UpdateMergesAcrossWriters)
{
    // Two writers updating the same file must not clobber each
    // other's sections.
    const std::string path = tempPath("perf_merge.json");
    std::remove(path.c_str());

    ASSERT_TRUE(PerfJson::update(path, "runtime", "serial_ms", 10.0));
    ASSERT_TRUE(PerfJson::update(path, "stages", "seg_ms", 2.5));
    ASSERT_TRUE(PerfJson::update(path, "runtime", "serial_ms", 9.0));

    const PerfJson loaded = PerfJson::load(path);
    EXPECT_DOUBLE_EQ(loaded.get("runtime", "serial_ms"), 9.0);
    EXPECT_DOUBLE_EQ(loaded.get("stages", "seg_ms"), 2.5);
    std::remove(path.c_str());
}

TEST(PerfJson, MissingFileLoadsEmpty)
{
    const PerfJson store =
        PerfJson::load(tempPath("does_not_exist.json"));
    EXPECT_EQ(store.numSections(), 0u);
    EXPECT_FALSE(store.has("a", "b"));
    EXPECT_DOUBLE_EQ(store.get("a", "b"), 0.0);
}

TEST(PerfJson, MalformedFileLoadsEmpty)
{
    const std::string path = tempPath("perf_malformed.json");
    {
        std::ofstream out(path);
        out << "{ not json at all";
    }
    const PerfJson store = PerfJson::load(path);
    EXPECT_EQ(store.numSections(), 0u);
    std::remove(path.c_str());
}

TEST(PerfJson, EscapesMetricNames)
{
    const std::string path = tempPath("perf_escape.json");
    std::remove(path.c_str());

    PerfJson store;
    store.set("sec\"tion", "metric\\name", 1.0);
    ASSERT_TRUE(store.write(path));
    const PerfJson loaded = PerfJson::load(path);
    EXPECT_DOUBLE_EQ(loaded.get("sec\"tion", "metric\\name"), 1.0);
    std::remove(path.c_str());
}
