#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

#include "common/logging.h"
#include "common/matrix.h"

namespace eyecod {

/**
 * The engine's twist and fill bodies, always inlined so that the AVX2
 * build of the Gaussian kernel twists and tempers at its width too.
 */
struct MtBlock
{
    static constexpr size_t kN = Mt19937_64::kStateWords;

    [[gnu::always_inline]] static void
    twist(Mt19937_64 &e)
    {
        using W = Mt19937_64::result_type;
        constexpr size_t kM = 156; // the middle word's offset
        constexpr W kUpper = ~W(0) << 31;
        constexpr W kMatrixA = 0xb5026f5aa96619e9u;
        auto next = [](W cur, W succ, W far) {
            const W y = (cur & kUpper) | (succ & ~kUpper);
            return far ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
        };
        W *x = e.state_;
        size_t k = 0;
        for (; k < kN - kM; ++k)
            x[k] = next(x[k], x[k + 1], x[k + kM]);
        for (; k < kN - 1; ++k)
            x[k] = next(x[k], x[k + 1], x[k + kM - kN]);
        x[kN - 1] = next(x[kN - 1], x[0], x[kM - 1]);
        e.index_ = 0;
    }

    [[gnu::always_inline]] static void
    fill(Mt19937_64 &e, Mt19937_64::result_type *out, size_t n)
    {
        while (n > 0) {
            if (e.index_ >= kN)
                twist(e);
            const size_t take = std::min(n, kN - e.index_);
            const Mt19937_64::result_type *words = e.state_ + e.index_;
            for (size_t i = 0; i < take; ++i)
                out[i] = Mt19937_64::temper(words[i]);
            e.index_ += take;
            out += take;
            n -= take;
        }
    }
};

namespace {

/**
 * generate_canonical<double, 53> of one output, as libstdc++ computes
 * it: double(u) / 2^64, and the largest double below 1 where that
 * rounds to 1, which it does for exactly u >= 2^64 - 2^10. Those u
 * move down by 2^10, into [2^64 - 2^11, 2^64 - 2^10), which rounds to
 * 2^64 - 2^11: the clamped value. The conversion places u's 32-bit
 * halves in the mantissas of 2^84 and 2^52 and subtracts those
 * exactly, so hi * 2^32 + lo rounds once, to double(u). Integer ops
 * and one rounding, with no branch or compare: the block loops below
 * vectorize over it.
 */
inline double
canonical(uint64_t u)
{
    u -= (((u >> 10) + 1) >> 54) << 10;
    const double hi =
        std::bit_cast<double>(0x4530000000000000u | (u >> 32)) - 0x1p84;
    const double lo =
        std::bit_cast<double>(0x4330000000000000u | (u & 0xffffffffu)) -
        0x1p52;
    return (hi + lo) * 0x1p-64;
}

/** One coordinate of a polar candidate: uniform on [-1, 1). */
inline double
polarCoordinate(uint64_t u)
{
    return 2.0 * canonical(u) - 1.0;
}

/** The polar method keeps a candidate inside the unit disc, but not
 *  its centre. Branch-free, so compaction can add it. */
inline size_t
polarAccepts(double r2)
{
    return size_t(r2 <= 1.0) & size_t(r2 != 0.0);
}

/** The value libstdc++'s normal_distribution returns for an accepted
 *  candidate (x is its discarded second value), from @p lg = log(r2). */
inline double
polarValue(double y, double r2, double lg, double mean, double stddev)
{
    const double mult = std::sqrt(-2.0 * lg / r2);
    return y * mult * stddev + mean;
}

/** Candidate pairs per block; sizes the stack blocks below. */
constexpr size_t kBlockPairs = 256;

/**
 * fillGaussian's body, always inlined so each caller's target picks
 * the instruction set. A block never draws more candidate pairs than
 * values still owed, and each accepted pair gives one value, so the
 * engine stops right after the pair that gave the last value, where
 * scalar draws leave it. The conversion and the final divide, sqrt and
 * multiply are elementwise, correctly rounded and free to vectorize
 * (rng.cc builds with -fno-math-errno so sqrt needs no libm call);
 * std::log runs once per value, in order.
 */
[[gnu::always_inline]] inline void
polarFill(Mt19937_64 &engine, double *out, size_t n, double mean,
          double stddev)
{
    uint64_t raw[2 * kBlockPairs];
    double coords[2 * kBlockPairs];
    double ys[kBlockPairs], r2s[kBlockPairs], lgs[kBlockPairs];
    while (n > 0) {
        const size_t pairs = std::min(n, kBlockPairs);
        MtBlock::fill(engine, raw, 2 * pairs);
        for (size_t i = 0; i < 2 * pairs; ++i)
            coords[i] = polarCoordinate(raw[i]);
        // Keep the accepted pairs, in draw order, without a branch.
        size_t kept = 0;
        for (size_t i = 0; i < pairs; ++i) {
            const double x = coords[2 * i];
            const double y = coords[2 * i + 1];
            const double r2 = x * x + y * y;
            ys[kept] = y;
            r2s[kept] = r2;
            kept += polarAccepts(r2);
        }
        for (size_t j = 0; j < kept; ++j)
            lgs[j] = std::log(r2s[j]);
        for (size_t j = 0; j < kept; ++j)
            out[j] = polarValue(ys[j], r2s[j], lgs[j], mean, stddev);
        out += kept;
        n -= kept;
    }
}

} // namespace

Mt19937_64::Mt19937_64(result_type seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kStateWords; ++i) {
        const result_type prev = state_[i - 1];
        state_[i] = (prev ^ (prev >> 62)) * 6364136223846793005u + i;
    }
    index_ = kStateWords;
}

void
Mt19937_64::twist()
{
    MtBlock::twist(*this);
}

void
Mt19937_64::fill(result_type *out, size_t n)
{
    MtBlock::fill(*this, out, n);
}

std::string
Mt19937_64::text() const
{
    std::string out;
    out.reserve(kStateWords * 21 + 3);
    char digits[24];
    for (result_type word : state_) {
        const auto end = std::to_chars(digits, digits + sizeof digits,
                                       word).ptr;
        out.append(digits, end);
        out.push_back(' ');
    }
    out.append(digits,
               std::to_chars(digits, digits + sizeof digits, index_).ptr);
    return out;
}

bool
Mt19937_64::parseText(std::string_view text)
{
    auto space = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r' ||
               c == '\v' || c == '\f';
    };
    const char *p = text.data();
    const char *const end = p + text.size();
    result_type words[kStateWords + 1];
    for (result_type &w : words) {
        while (p != end && space(*p))
            ++p;
        const auto [next, ec] = std::from_chars(p, end, w);
        if (ec != std::errc() || (next != end && !space(*next)))
            return false;
        p = next;
    }
    while (p != end && space(*p))
        ++p;
    if (p != end || words[kStateWords] > kStateWords)
        return false;
    std::copy(words, words + kStateWords, state_);
    index_ = size_t(words[kStateWords]);
    return true;
}

double
Rng::uniform(double lo, double hi)
{
    return canonical(engine_()) * (hi - lo) + lo;
}

double
Rng::gaussian(double mean, double stddev)
{
    double y, r2;
    do {
        const double x = polarCoordinate(engine_());
        y = polarCoordinate(engine_());
        r2 = x * x + y * y;
    } while (!polarAccepts(r2));
    return polarValue(y, r2, std::log(r2), mean, stddev);
}

void
Rng::fillGaussian(double *out, size_t n, double mean, double stddev)
{
    static const auto kernel = detail::cpuHasAvx2()
                                   ? &detail::fillGaussianAvx2
                                   : &detail::fillGaussianPortable;
    kernel(engine_, out, n, mean, stddev);
}

namespace detail {

void
fillGaussianPortable(Mt19937_64 &engine, double *out, size_t n,
                     double mean, double stddev)
{
    polarFill(engine, out, n, mean, stddev);
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("avx2"))) void
fillGaussianAvx2(Mt19937_64 &engine, double *out, size_t n, double mean,
                 double stddev)
{
    polarFill(engine, out, n, mean, stddev);
}

#else

void
fillGaussianAvx2(Mt19937_64 &, double *, size_t, double, double)
{
    panic("fillGaussianAvx2: no AVX2 on this target");
}

#endif

} // namespace detail

} // namespace eyecod
