#include "common/snapshot.h"

namespace eyecod {
namespace snap {

void
SnapshotWriter::str(const std::string &s)
{
    u32(uint32_t(s.size()));
    for (char c : s)
        u8(uint8_t(c));
}

void
SnapshotWriter::field(const Rect &rect)
{
    field(rect.x);
    field(rect.y);
    field(rect.width);
    field(rect.height);
}

void
SnapshotWriter::field(const Image &img)
{
    field(img.height());
    field(img.width());
    for (float px : img.data())
        field(px);
}

const Status &
SnapshotReader::corrupt(const char *what)
{
    if (ok())
        status_ = Status::error(ErrorCode::CorruptSnapshot,
                                "snapshot corrupt at byte %zu/%zu: %s",
                                pos_, size_, what);
    return status_;
}

Result<uint8_t>
SnapshotReader::u8()
{
    if (!ok())
        return status_;
    if (pos_ >= size_)
        return corrupt("truncated u8");
    return data_[pos_++];
}

Result<bool>
SnapshotReader::b()
{
    auto v = u8();
    if (!v.ok())
        return v.status();
    if (v.value() > 1)
        return corrupt("bool byte not 0/1");
    return v.value() == 1;
}

Result<uint32_t>
SnapshotReader::u32()
{
    if (!ok())
        return status_;
    if (size_ - pos_ < 4)
        return corrupt("truncated u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(data_[pos_ + size_t(i)]) << (8 * i);
    pos_ += 4;
    return v;
}

Result<uint64_t>
SnapshotReader::u64()
{
    if (!ok())
        return status_;
    if (size_ - pos_ < 8)
        return corrupt("truncated u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(data_[pos_ + size_t(i)]) << (8 * i);
    pos_ += 8;
    return v;
}

Result<long long>
SnapshotReader::i64()
{
    auto v = u64();
    if (!v.ok())
        return v.status();
    return static_cast<long long>(v.value());
}

Result<int>
SnapshotReader::i32()
{
    auto v = u32();
    if (!v.ok())
        return v.status();
    return static_cast<int>(v.value());
}

Result<double>
SnapshotReader::f64()
{
    auto v = u64();
    if (!v.ok())
        return v.status();
    return std::bit_cast<double>(v.value());
}

Result<float>
SnapshotReader::f32()
{
    auto v = u32();
    if (!v.ok())
        return v.status();
    return std::bit_cast<float>(v.value());
}

Result<std::string>
SnapshotReader::str(size_t max_len)
{
    auto len = u32();
    if (!len.ok())
        return len.status();
    if (len.value() > max_len)
        return corrupt("string length above caller limit");
    if (size_ - pos_ < len.value())
        return corrupt("truncated string body");
    std::string out;
    out.reserve(len.value());
    for (uint32_t i = 0; i < len.value(); ++i)
        out.push_back(char(data_[pos_ + i]));
    pos_ += len.value();
    return out;
}

Result<uint64_t>
SnapshotReader::count(uint64_t max)
{
    auto v = u64();
    if (!v.ok())
        return v.status();
    if (v.value() > max)
        return corrupt("container count above limit");
    return v.value();
}

Status
SnapshotReader::expectTag(uint32_t want)
{
    auto got = u32();
    if (!got.ok())
        return got.status();
    if (got.value() != want) {
        status_ = Status::error(ErrorCode::CorruptSnapshot,
                                "snapshot fence mismatch: want 0x%08x got "
                                "0x%08x at byte %zu",
                                want, got.value(), pos_);
        return status_;
    }
    return Status::ok();
}

void
SnapshotReader::field(Rect &rect)
{
    field(rect.x);
    field(rect.y);
    field(rect.width);
    field(rect.height);
}

void
SnapshotReader::field(Image &img, int max_extent)
{
    int h = 0, w = 0;
    field(h);
    field(w);
    if (!ok())
        return;
    if (h < 0 || w < 0 || h > max_extent || w > max_extent) {
        corrupt("image extent outside [0, max_extent]");
        return;
    }
    // Every pixel is overwritten below; reject before sizing storage
    // from untrusted extents larger than the remaining bytes could
    // ever fill (4 bytes per pixel).
    if (size_t(h) * size_t(w) * 4 > remaining()) {
        corrupt("image body exceeds remaining bytes");
        return;
    }
    img.resetShape(h, w);
    for (float &px : img.data())
        field(px);
}

Status
SnapshotReader::expectEnd() const
{
    if (!atEnd())
        return Status::error(ErrorCode::CorruptSnapshot,
                             "snapshot has %zu trailing bytes",
                             remaining());
    return Status::ok();
}

void
writeHeader(SnapshotWriter &w)
{
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotVersion);
}

Status
checkHeader(SnapshotReader &r)
{
    auto magic = r.u32();
    if (!magic.ok())
        return magic.status();
    if (magic.value() != kSnapshotMagic)
        return Status::error(ErrorCode::CorruptSnapshot,
                             "bad snapshot magic 0x%08x", magic.value());
    auto version = r.u32();
    if (!version.ok())
        return version.status();
    if (version.value() != kSnapshotVersion)
        return Status::error(ErrorCode::VersionMismatch,
                             "snapshot version %u, this build reads %u",
                             version.value(), kSnapshotVersion);
    return Status::ok();
}

uint64_t
fnv1a(const uint8_t *data, size_t size)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

void
sealSnapshot(SnapshotWriter &w)
{
    w.u64(fnv1a(w.bytes().data(), w.bytes().size()));
}

Result<size_t>
checkSeal(const uint8_t *data, size_t size)
{
    if (size < 8)
        return Status::error(ErrorCode::CorruptSnapshot,
                             "sealed snapshot too short (%zu bytes)",
                             size);
    const size_t payload = size - 8;
    uint64_t want = 0;
    for (int i = 0; i < 8; ++i)
        want |= uint64_t(data[payload + size_t(i)]) << (8 * i);
    const uint64_t got = fnv1a(data, payload);
    if (got != want)
        return Status::error(ErrorCode::CorruptSnapshot,
                             "snapshot checksum mismatch: stored "
                             "0x%016llx computed 0x%016llx",
                             (unsigned long long)want,
                             (unsigned long long)got);
    return payload;
}

void
writeRect(SnapshotWriter &w, const Rect &rect)
{
    w.field(rect);
}

Result<Rect>
readRect(SnapshotReader &r)
{
    Rect rect;
    r.field(rect);
    if (!r.status().isOk())
        return r.status();
    return rect;
}

void
writeImage(SnapshotWriter &w, const Image &img)
{
    w.field(img);
}

Status
readImage(SnapshotReader &r, Image *out, int max_extent)
{
    r.field(*out, max_extent);
    return r.status();
}

} // namespace snap
} // namespace eyecod
