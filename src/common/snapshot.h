/**
 * @file
 * Versioned field-wise binary snapshot codec.
 *
 * The serving engine checkpoints its whole live state graph (engine,
 * sessions, queues, pipelines, sensor RNG streams) so a crashed
 * scheduler can restore and resume **bitwise identically**; the same
 * format would carry a session between engines if session migration
 * (parked in ROADMAP.md) is ever built. Three rules govern the format:
 *
 *  1. **Field-wise only.** Every value is encoded one field at a time
 *     through the typed calls below. Whole-struct memcpy /
 *     reinterpret_cast serialization is banned (detlint R9
 *     raw-memcpy-serialize): struct layout, padding, and endianness
 *     are not part of the format.
 *  2. **One field list per type.** Each snapshotted type has a single
 *     `template <class Self, class Ar> static void fields(Self &,
 *     Ar &)` that both SnapshotWriter and SnapshotReader walk (the
 *     archive idiom), so save and restore cannot drift apart. The
 *     writer walks a const object (Self = const T); the reader a
 *     mutable one. Restore-only steps sit in one
 *     `if constexpr (Ar::kLoading)` per list.
 *  3. **Never trust input.** Decoding is bounds-checked on every read;
 *     container counts are validated against a caller-supplied
 *     maximum *and* the bytes that remain, before anything is sized
 *     from them; every component is fenced by a tag word. The reader
 *     latches its first error (status()), so a truncated or
 *     bit-flipped snapshot yields `ErrorCode::CorruptSnapshot` (or
 *     `VersionMismatch` for a foreign version) naming the first
 *     thing that went wrong.
 *
 * Layout: a snapshot is a flat byte string. Scalars are fixed-width
 * little-endian; floating point travels as its IEEE-754 bit pattern
 * (bit_cast, not memcpy). An integral field travels at its C++ type's
 * width (int as i32, long long as i64); where the wire type differs
 * from that — enums, and size_t, whose width is platform-dependent —
 * the list spells it: snap::wire<W>(x) for a decoded field, a cast
 * for an expect()ed one. Strings are u32
 * length-prefixed. Components write `u32 tag` first so a reader that
 * drifts out of sync fails fast at the next fence.
 */

#ifndef EYECOD_COMMON_SNAPSHOT_H
#define EYECOD_COMMON_SNAPSHOT_H

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/image.h"
#include "common/status.h"

namespace eyecod {
namespace snap {

/** Format magic ("EYCS") leading every top-level snapshot. */
constexpr uint32_t kSnapshotMagic = 0x45594353u;

/** Current format version. Bump on any layout change. */
constexpr uint32_t kSnapshotVersion = 2;

/** A field that travels as wire type @p W; see wire(). */
template <class W, class T>
struct Wire
{
    T &ref;
};

/**
 * Spell a field's wire type where it differs from its C++ type's
 * natural width: `ar.field(snap::wire<uint8_t>(rec.reason))`.
 */
template <class W, class T>
Wire<W, T>
wire(T &x)
{
    return {x};
}

/** @p T has a snapshot field list that archive @p Ar can walk. */
template <class T, class Ar>
concept HasFields = requires(T &v, Ar &ar) {
    std::remove_const_t<T>::fields(v, ar);
};

/**
 * Append-only snapshot encoder. Infallible: the writer owns its
 * buffer and grows it as needed (snapshots are taken off the per-
 * frame hot path, at tick boundaries).
 */
class SnapshotWriter
{
  public:
    /** Field lists branch on this for restore-only steps. */
    static constexpr bool kLoading = false;

    /** Append one byte. */
    void
    u8(uint8_t v)
    {
        bytes_.push_back(v); // detlint:allow(R8) snapshot buffer, bounded by state-graph size
    }

    /** Append a bool as one byte (0/1). */
    void b(bool v) { u8(v ? 1 : 0); }

    /** Append a u32, little-endian. */
    void
    u32(uint32_t v)
    {
        u8(uint8_t(v & 0xffu));
        u8(uint8_t((v >> 8) & 0xffu));
        u8(uint8_t((v >> 16) & 0xffu));
        u8(uint8_t((v >> 24) & 0xffu));
    }

    /** Append a u64, little-endian. */
    void
    u64(uint64_t v)
    {
        u32(uint32_t(v & 0xffffffffu));
        u32(uint32_t(v >> 32));
    }

    /** Append a signed 64-bit value (two's-complement bit pattern). */
    void i64(long long v) { u64(uint64_t(v)); }

    /** Append a signed 32-bit value. */
    void i32(int v) { u32(uint32_t(v)); }

    /** Append a double as its IEEE-754 bit pattern. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    /** Append a float as its IEEE-754 bit pattern. */
    void f32(float v) { u32(std::bit_cast<uint32_t>(v)); }

    /** Append a u32 length prefix + raw bytes. */
    void str(const std::string &s);

    /** Append a component fence tag (reader must match it). */
    void tag(uint32_t t) { u32(t); }

    // Archive face, walked by the field lists. Each field() has a
    // SnapshotReader twin that decodes exactly what it encodes.

    void field(bool v) { b(v); }
    void field(float v) { f32(v); }
    void field(double v) { f64(v); }

    /** An integer at its type's width (u8, 32- or 64-bit). */
    template <std::integral T>
    void
    field(T v)
    {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                      "no wire type of this width");
        if constexpr (sizeof(T) == 1)
            u8(static_cast<uint8_t>(v));
        else if constexpr (sizeof(T) == 4)
            u32(static_cast<uint32_t>(v));
        else
            u64(static_cast<uint64_t>(v));
    }

    /** A string; @p max_len bounds the reader only. */
    void field(const std::string &s, size_t /*max_len*/) { str(s); }

    /** A Rect as x, y, width, height. */
    void field(const Rect &rect);

    /** An Image as height, width, then the pixels row-major. */
    void field(const Image &img);

    template <class W, class T>
    void
    field(Wire<W, T> x)
    {
        field(static_cast<W>(x.ref));
    }

    template <class T, size_t N>
    void
    field(const std::array<T, N> &a)
    {
        for (const T &x : a)
            field(x);
    }

    /** A presence byte, then the value when present. */
    template <class T>
    void
    field(const std::optional<T> &o)
    {
        b(o.has_value());
        if (o)
            field(*o);
    }

    /** A component with its own field list. */
    template <class T>
        requires HasFields<const T, SnapshotWriter>
    void
    field(const T &v)
    {
        T::fields(v, *this);
    }

    /** A configuration or fingerprint field the reader compares with
     *  its live value instead of decoding. */
    template <class T>
    void
    expect(const T &live)
    {
        field(live);
    }

    /** A range rule on decoded values; checked by the reader only. */
    void check(bool /*cond*/, const char * /*what*/) {}

    /**
     * A counted container: u64 element count, then every element
     * through @p each. @p max bounds the reader's count.
     */
    template <class Vec, class Each>
    void
    items(const Vec &v, uint64_t /*max*/, Each each)
    {
        u64(uint64_t(v.size()));
        for (const auto &x : v)
            each(x);
    }

    /** items() with each element encoded by field(). */
    template <class Vec>
    void
    items(const Vec &v, uint64_t max)
    {
        items(v, max, [this](const auto &x) { field(x); });
    }

    /** The encoded bytes so far. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    /** Move the encoded bytes out. */
    std::vector<uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Bounds-checked snapshot decoder over a borrowed byte range. Every
 * accessor either returns a value or a typed CorruptSnapshot error.
 * The first failure latches: status() keeps reporting it, later
 * reads return it without consuming bytes, and the archive face
 * (field, expect, check, items) becomes a no-op, so a field list
 * runs to its end and the caller checks status() once.
 */
class SnapshotReader
{
  public:
    /** Field lists branch on this for restore-only steps. */
    static constexpr bool kLoading = true;

    SnapshotReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {
    }

    explicit SnapshotReader(const std::vector<uint8_t> &bytes)
        : SnapshotReader(bytes.data(), bytes.size())
    {
    }

    /** Read one byte. */
    Result<uint8_t> u8();

    /** Read a bool; bytes other than 0/1 are corrupt. */
    Result<bool> b();

    /** Read a little-endian u32. */
    Result<uint32_t> u32();

    /** Read a little-endian u64. */
    Result<uint64_t> u64();

    /** Read a signed 64-bit value. */
    Result<long long> i64();

    /** Read a signed 32-bit value. */
    Result<int> i32();

    /** Read a double from its bit pattern. */
    Result<double> f64();

    /** Read a float from its bit pattern. */
    Result<float> f32();

    /**
     * Read a length-prefixed string; lengths above @p max_len (or
     * past the end of the buffer) are corrupt.
     */
    Result<std::string> str(size_t max_len);

    /**
     * Read a container count and validate it against @p max — a
     * count a hostile snapshot could inflate must never size an
     * allocation unchecked.
     */
    Result<uint64_t> count(uint64_t max);

    /** Read a fence tag and require it to equal @p want. */
    Status expectTag(uint32_t want);

    /** Archive face: a fence tag (expectTag()). */
    void
    tag(uint32_t want)
    {
        (void)expectTag(want);
    }

    void field(bool &v) { take(b(), v); }
    void field(float &v) { take(f32(), v); }
    void field(double &v) { take(f64(), v); }

    template <std::integral T>
    void
    field(T &v)
    {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8,
                      "no wire type of this width");
        if constexpr (sizeof(T) == 1)
            take(u8(), v);
        else if constexpr (sizeof(T) == 4)
            take(u32(), v);
        else
            take(u64(), v);
    }

    void field(std::string &s, size_t max_len) { take(str(max_len), s); }

    void field(Rect &rect);

    /**
     * Decode an Image (storage reused when the capacity fits).
     * Extents are validated against @p max_extent per axis, and the
     * pixels against the remaining bytes, before any allocation is
     * sized from snapshot input.
     */
    void field(Image &img, int max_extent = 1 << 14);

    template <class W, class T>
    void
    field(Wire<W, T> x)
    {
        W v{};
        field(v);
        if (ok())
            x.ref = static_cast<T>(v);
    }

    template <class T, size_t N>
    void
    field(std::array<T, N> &a)
    {
        for (T &x : a)
            field(x);
    }

    template <class T>
    void
    field(std::optional<T> &o)
    {
        bool has = false;
        field(has);
        if (!ok())
            return;
        if (!has) {
            o.reset();
            return;
        }
        T v{};
        field(v);
        if (ok())
            o = v;
    }

    template <class T>
        requires HasFields<T, SnapshotReader>
    void
    field(T &v)
    {
        T::fields(v, *this);
    }

    /** Decode a field and require it to equal @p live. */
    template <class T>
    void
    expect(const T &live)
    {
        T got = live;
        field(got);
        if (ok() && !(got == live))
            corrupt("field differs from this instance's configuration");
    }

    /** Fail as corrupt unless @p cond holds (a decoded value's range). */
    void
    check(bool cond, const char *what)
    {
        if (ok() && !cond)
            corrupt(what);
    }

    /**
     * Decode a counted container into @p v, element by element
     * through @p each. A count above @p max, or above the bytes left
     * (every element takes at least one), is corrupt before @p v is
     * sized from it. Decoding stops at the first failure, leaving
     * @p v holding only the elements decoded before it.
     */
    template <class Vec, class Each>
    void
    items(Vec &v, uint64_t max, Each each)
    {
        const Result<uint64_t> n = count(max);
        if (!n.ok())
            return;
        if (n.value() > remaining()) {
            corrupt("container count exceeds remaining bytes");
            return;
        }
        v.clear();
        v.resize(size_t(n.value()));
        for (size_t i = 0; i < v.size(); ++i) {
            each(v[i]);
            if (!ok()) {
                v.resize(i);
                return;
            }
        }
    }

    template <class Vec>
    void
    items(Vec &v, uint64_t max)
    {
        items(v, max, [this](auto &x) { field(x); });
    }

    /** OK, or the first error any read reported. */
    const Status &status() const { return status_; }

    /** Bytes not yet consumed. */
    size_t remaining() const { return size_ - pos_; }

    /** True when every byte has been consumed. */
    bool atEnd() const { return pos_ == size_; }

    /** OK only when the whole buffer was consumed exactly. */
    Status expectEnd() const;

  private:
    bool ok() const { return status_.isOk(); }

    /** Store a decoded value unless the read failed. */
    template <class R, class T>
    void
    take(const Result<R> &r, T &v)
    {
        if (r.ok())
            v = static_cast<T>(r.value());
    }

    /** Latch a CorruptSnapshot error (the first one sticks) and
     *  return the latched status. */
    const Status &corrupt(const char *what);

    const uint8_t *data_ = nullptr;
    size_t size_ = 0;
    size_t pos_ = 0;
    Status status_;
};

/** Write the top-level header (magic + version). */
void writeHeader(SnapshotWriter &w);

/**
 * Check the top-level header: CorruptSnapshot on a bad magic,
 * VersionMismatch on a well-formed header from another version.
 */
Status checkHeader(SnapshotReader &r);

/** FNV-1a 64-bit hash of a byte range. */
uint64_t fnv1a(const uint8_t *data, size_t size);

/**
 * Seal a top-level snapshot: append the FNV-1a checksum of every
 * byte written so far as the trailing u64. Any later truncation or
 * bit flip — header, payload, or the checksum itself — is detected
 * before a single payload field is decoded.
 */
void sealSnapshot(SnapshotWriter &w);

/**
 * Verify a sealed snapshot's trailing checksum. Returns the payload
 * byte count (the sealed size minus the checksum), or
 * CorruptSnapshot when the buffer is too short or the checksum does
 * not match.
 */
Result<size_t> checkSeal(const uint8_t *data, size_t size);

/** Encode a Rect field-wise (x, y, width, height). */
void writeRect(SnapshotWriter &w, const Rect &rect);

/** Decode a Rect. */
Result<Rect> readRect(SnapshotReader &r);

/** Encode an Image field-wise (extents + pixels). */
void writeImage(SnapshotWriter &w, const Image &img);

/**
 * Decode an Image into @p out (storage reused when the capacity
 * fits). Extents are validated against @p max_extent per axis before
 * any allocation is sized from snapshot input.
 */
Status readImage(SnapshotReader &r, Image *out, int max_extent = 1 << 14);

} // namespace snap
} // namespace eyecod

#endif // EYECOD_COMMON_SNAPSHOT_H
