/**
 * @file
 * Unit tests of the versioned field-wise snapshot codec
 * (common/snapshot.h): scalar round trips, bounds checking on every
 * read, the sticky-failure reader contract, header/version policy,
 * the FNV-1a seal, and the RunningStat / StreamingHistogram
 * component round trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/snapshot.h"
#include "common/stats.h"

namespace eyecod {
namespace snap {
namespace {

TEST(SnapshotCodec, ScalarRoundTrip)
{
    SnapshotWriter w;
    w.u8(0xab);
    w.b(true);
    w.b(false);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.i32(-7);
    w.f64(-0.125);
    w.f32(3.5f);
    w.str("flatcam");
    w.tag(0x54455354);

    SnapshotReader r(w.bytes());
    EXPECT_EQ(r.u8().value(), 0xab);
    EXPECT_TRUE(r.b().value());
    EXPECT_FALSE(r.b().value());
    EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
    EXPECT_EQ(r.u64().value(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64().value(), -42);
    EXPECT_EQ(r.i32().value(), -7);
    EXPECT_EQ(r.f64().value(), -0.125);
    EXPECT_EQ(r.f32().value(), 3.5f);
    EXPECT_EQ(r.str(64).value(), "flatcam");
    EXPECT_TRUE(r.expectTag(0x54455354).isOk());
    EXPECT_TRUE(r.atEnd());
    EXPECT_TRUE(r.expectEnd().isOk());
}

TEST(SnapshotCodec, FloatBitPatternsAreExact)
{
    SnapshotWriter w;
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::denorm_min());
    SnapshotReader r(w.bytes());
    EXPECT_TRUE(std::isnan(r.f64().value()));
    EXPECT_TRUE(std::signbit(r.f64().value()));
    EXPECT_EQ(r.f64().value(),
              std::numeric_limits<double>::denorm_min());
}

TEST(SnapshotCodec, ReadsPastEndAreCorrupt)
{
    SnapshotWriter w;
    w.u32(7);
    SnapshotReader r(w.bytes());
    EXPECT_TRUE(r.u32().ok());
    const Result<uint32_t> past = r.u32();
    ASSERT_FALSE(past.ok());
    EXPECT_EQ(past.status().code(), ErrorCode::CorruptSnapshot);
}

TEST(SnapshotCodec, FailureIsSticky)
{
    SnapshotWriter w;
    w.u8(2); // invalid bool byte
    w.u32(99);
    SnapshotReader r(w.bytes());
    EXPECT_FALSE(r.b().ok());
    // The bool consumed its byte before failing validation, but the
    // latched failure keeps every later read failing — a decode
    // routine may batch reads and check only the last Result.
    EXPECT_FALSE(r.u32().ok());
    EXPECT_FALSE(r.u8().ok());
}

TEST(SnapshotCodec, TagMismatchIsCorruptAndSticky)
{
    SnapshotWriter w;
    w.tag(0x11111111);
    w.u32(5);
    SnapshotReader r(w.bytes());
    const Status s = r.expectTag(0x22222222);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot);
    EXPECT_FALSE(r.u32().ok());
}

TEST(SnapshotCodec, StringLengthIsBounded)
{
    SnapshotWriter w;
    w.str("0123456789");
    {
        SnapshotReader r(w.bytes());
        EXPECT_FALSE(r.str(9).ok());
    }
    // A hostile length prefix larger than the buffer is corrupt, not
    // an allocation request.
    SnapshotWriter h;
    h.u32(0x40000000u);
    SnapshotReader r(h.bytes());
    const Result<std::string> s = r.str(1u << 31);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.status().code(), ErrorCode::CorruptSnapshot);
}

TEST(SnapshotCodec, ContainerCountIsBounded)
{
    SnapshotWriter w;
    w.u64(1001);
    SnapshotReader r(w.bytes());
    const Result<uint64_t> c = r.count(1000);
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), ErrorCode::CorruptSnapshot);

    SnapshotWriter ok;
    ok.u64(1000);
    SnapshotReader r2(ok.bytes());
    EXPECT_EQ(r2.count(1000).value(), 1000u);
}

TEST(SnapshotCodec, StatusKeepsTheFirstError)
{
    // A routine that batches reads and checks once learns the cause,
    // not that the reader had already failed.
    SnapshotWriter w;
    w.u8(2); // invalid bool byte
    SnapshotReader r(w.bytes());
    bool flag = false;
    uint32_t word = 7;
    r.field(flag);
    r.field(word); // past the end
    ASSERT_EQ(r.status().code(), ErrorCode::CorruptSnapshot);
    EXPECT_NE(r.status().message().find("bool byte"), std::string::npos)
        << r.status().toString();
    EXPECT_EQ(word, 7u);
    EXPECT_EQ(r.u32().status().message(), r.status().message());
}

TEST(SnapshotCodec, HostileContainerCountSizesNothing)
{
    // Within its limit but past the remaining bytes (each element
    // takes at least one): refused before the vector is sized.
    SnapshotWriter w;
    w.u64(1000);
    SnapshotReader r(w.bytes());
    std::vector<double> v;
    r.items(v, 1000);
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptSnapshot);
    EXPECT_EQ(v.capacity(), 0u);
}

/** One field list exercising every archive op. */
struct ArchiveProbe
{
    size_t cap = 4;
    int id = 0;
    std::optional<Rect> roi;
    std::vector<long long> log;
    ErrorCode code = ErrorCode::Ok;

    template <class Self, class Ar>
    static void
    fields(Self &p, Ar &ar)
    {
        ar.tag(0x50524f42);
        ar.expect(uint64_t(p.cap));
        ar.field(p.id);
        ar.check(p.id >= 0, "negative id");
        ar.field(p.roi);
        ar.items(p.log, uint64_t(p.cap));
        ar.field(wire<int32_t>(p.code));
    }
};

TEST(SnapshotArchive, OneFieldListDrivesBothSides)
{
    ArchiveProbe in;
    in.id = 9;
    in.roi = Rect{1, 2, 3, 4};
    in.log = {-5, 6};
    in.code = ErrorCode::CorruptSnapshot;
    SnapshotWriter w;
    w.field(in);
    // tag, u64 cap, i32 id, presence byte + 4 x i32, u64 count +
    // 2 x i64, i32 code.
    EXPECT_EQ(w.bytes().size(), 4u + 8 + 4 + 1 + 16 + 8 + 16 + 4);

    ArchiveProbe out;
    out.log = {1, 2, 3};
    SnapshotReader r(w.bytes());
    r.field(out);
    ASSERT_TRUE(r.status().isOk()) << r.status().toString();
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(out.id, 9);
    ASSERT_TRUE(out.roi.has_value());
    EXPECT_EQ(out.roi->height, 4);
    EXPECT_EQ(out.log, in.log);
    EXPECT_EQ(out.code, ErrorCode::CorruptSnapshot);

    // expect(): a live value the snapshot disagrees with is corrupt.
    ArchiveProbe narrow;
    narrow.cap = 3;
    SnapshotReader r2(w.bytes());
    r2.field(narrow);
    EXPECT_EQ(r2.status().code(), ErrorCode::CorruptSnapshot);

    // check(): the writer ignores it, the reader enforces it.
    ArchiveProbe negative;
    negative.id = -1;
    SnapshotWriter w3;
    w3.field(negative);
    SnapshotReader r3(w3.bytes());
    r3.field(out);
    EXPECT_EQ(r3.status().code(), ErrorCode::CorruptSnapshot);
}

TEST(SnapshotCodec, TrailingBytesFailExpectEnd)
{
    SnapshotWriter w;
    w.u32(1);
    w.u8(0);
    SnapshotReader r(w.bytes());
    EXPECT_TRUE(r.u32().ok());
    const Status s = r.expectEnd();
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot);
}

TEST(SnapshotHeader, RoundTripAndVersionPolicy)
{
    SnapshotWriter w;
    writeHeader(w);
    {
        SnapshotReader r(w.bytes());
        EXPECT_TRUE(checkHeader(r).isOk());
    }
    // Foreign version: well-formed header, different version word.
    std::vector<uint8_t> future = w.bytes();
    future[4] = uint8_t(kSnapshotVersion + 1);
    {
        SnapshotReader r(future.data(), future.size());
        const Status s = checkHeader(r);
        ASSERT_FALSE(s.isOk());
        EXPECT_EQ(s.code(), ErrorCode::VersionMismatch);
    }
    // Bad magic: corrupt, not a version question.
    std::vector<uint8_t> junk = w.bytes();
    junk[0] ^= 0xff;
    SnapshotReader r(junk.data(), junk.size());
    const Status s = checkHeader(r);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot);
}

TEST(SnapshotSeal, DetectsEveryBitFlipAndTruncation)
{
    SnapshotWriter w;
    writeHeader(w);
    w.u32(0xfeedu);
    w.str("payload");
    sealSnapshot(w);
    const std::vector<uint8_t> sealed = w.bytes();

    const Result<size_t> good =
        checkSeal(sealed.data(), sealed.size());
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), sealed.size() - 8);

    std::vector<uint8_t> mutant = sealed;
    for (size_t byte = 0; byte < sealed.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            mutant[byte] = uint8_t(sealed[byte] ^ (1u << bit));
            const Result<size_t> s =
                checkSeal(mutant.data(), mutant.size());
            ASSERT_FALSE(s.ok())
                << "flip " << byte << ":" << bit << " passed";
            EXPECT_EQ(s.status().code(),
                      ErrorCode::CorruptSnapshot);
        }
        mutant[byte] = sealed[byte];
    }
    for (size_t len = 0; len < sealed.size(); ++len) {
        const Result<size_t> s = checkSeal(sealed.data(), len);
        ASSERT_FALSE(s.ok()) << "prefix " << len << " passed";
    }
}

TEST(SnapshotComponents, RectAndImageRoundTrip)
{
    SnapshotWriter w;
    writeRect(w, Rect{3, -4, 17, 29});
    Image img;
    img.resetShape(5, 7);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 7; ++x)
            img.at(y, x) = float(y * 7 + x) * 0.25f;
    writeImage(w, img);

    SnapshotReader r(w.bytes());
    const Result<Rect> rect = readRect(r);
    ASSERT_TRUE(rect.ok());
    EXPECT_EQ(rect.value().x, 3);
    EXPECT_EQ(rect.value().y, -4);
    EXPECT_EQ(rect.value().width, 17);
    EXPECT_EQ(rect.value().height, 29);
    Image out;
    ASSERT_TRUE(readImage(r, &out).isOk());
    ASSERT_EQ(out.height(), 5);
    ASSERT_EQ(out.width(), 7);
    for (int y = 0; y < 5; ++y)
        for (int x = 0; x < 7; ++x)
            EXPECT_EQ(out.at(y, x), img.at(y, x));
    EXPECT_TRUE(r.expectEnd().isOk());
}

TEST(SnapshotComponents, HostileImageExtentsAreCorrupt)
{
    // Extents above the per-axis bound must be rejected before any
    // allocation is sized from them.
    SnapshotWriter w;
    w.i32(1 << 20);
    w.i32(1 << 20);
    Image out;
    SnapshotReader r(w.bytes());
    const Status s = readImage(r, &out);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot);

    // Plausible extents but truncated pixel data: also corrupt (the
    // pixel payload is bounds-checked against the remaining bytes).
    SnapshotWriter t;
    t.i32(100);
    t.i32(100);
    t.f32(1.0f);
    SnapshotReader r2(t.bytes());
    const Status s2 = readImage(r2, &out);
    ASSERT_FALSE(s2.isOk());
    EXPECT_EQ(s2.code(), ErrorCode::CorruptSnapshot);
}

TEST(SnapshotComponents, RunningStatRoundTrip)
{
    RunningStat st;
    for (int i = 0; i < 100; ++i)
        st.add(double(i) * 0.37 - 5.0);
    SnapshotWriter w;
    st.saveSnapshot(w);

    RunningStat back;
    SnapshotReader r(w.bytes());
    ASSERT_TRUE(back.restoreSnapshot(r).isOk());
    EXPECT_EQ(back.count(), st.count());
    EXPECT_EQ(back.mean(), st.mean());
    EXPECT_EQ(back.stddev(), st.stddev());
    EXPECT_EQ(back.min(), st.min());
    EXPECT_EQ(back.max(), st.max());

    // Restored stats must continue identically, not just compare
    // equal at rest.
    back.add(123.456);
    st.add(123.456);
    EXPECT_EQ(back.mean(), st.mean());
    EXPECT_EQ(back.stddev(), st.stddev());
}

TEST(SnapshotComponents, StreamingHistogramRoundTrip)
{
    StreamingHistogram h(1.0, 1e8);
    for (int i = 1; i < 500; ++i)
        h.add(double(i) * 13.7);
    SnapshotWriter w;
    h.saveSnapshot(w);

    StreamingHistogram back(1.0, 1e8);
    SnapshotReader r(w.bytes());
    ASSERT_TRUE(back.restoreSnapshot(r).isOk());
    EXPECT_EQ(back.p50(), h.p50());
    EXPECT_EQ(back.p99(), h.p99());
    EXPECT_EQ(back.quantile(0.999), h.quantile(0.999));

    back.add(42.0);
    h.add(42.0);
    EXPECT_EQ(back.p50(), h.p50());
}

TEST(SnapshotComponents, HistogramGeometryMismatchIsCorrupt)
{
    StreamingHistogram h(1.0, 1e8);
    h.add(100.0);
    SnapshotWriter w;
    h.saveSnapshot(w);

    // A histogram with different bucket geometry must refuse the
    // snapshot instead of silently reinterpreting bucket counts.
    StreamingHistogram other(1.0, 1e6);
    SnapshotReader r(w.bytes());
    const Status s = other.restoreSnapshot(r);
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), ErrorCode::CorruptSnapshot);
}

} // namespace
} // namespace snap
} // namespace eyecod
