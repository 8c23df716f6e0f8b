/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the repository (mask generation, sensor
 * noise, synthetic eye sampling, weight initialization) draws from an
 * explicitly seeded Rng so that tests and benchmark tables are
 * reproducible bit-for-bit across runs.
 *
 * The engine and the uniform and Gaussian samplers are implemented
 * here, so their draws do not depend on the standard library: they
 * reproduce the libstdc++ draws the repository's pinned results were
 * recorded with (DESIGN.md §6, "Numeric kernels"). uniformInt,
 * bernoulli and poisson still use the standard distributions.
 */

#ifndef EYECOD_COMMON_RNG_H
#define EYECOD_COMMON_RNG_H

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

namespace eyecod {

/**
 * The 64-bit Mersenne Twister of [rand.predef] (the standard's
 * mt19937_64): the same seeding, twist and tempering, so the same
 * output sequence, plus a bulk fill. It meets the standard's
 * UniformRandomBitGenerator requirements, so the standard
 * distributions and algorithms accept it.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    /** Words of state (n). */
    static constexpr size_t kStateWords = 312;
    /** The standard's default seed. */
    static constexpr result_type kDefaultSeed = 5489u;

    /** Seed as the standard engine does. */
    explicit Mt19937_64(result_type seed = kDefaultSeed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** The next output. */
    result_type
    operator()()
    {
        if (index_ >= kStateWords)
            twist();
        return temper(state_[index_++]);
    }

    /** The next @p n outputs, as n calls of operator() would give. */
    void fill(result_type *out, size_t n);

    /**
     * The state in the standard engine's text form (libstdc++'s
     * operator<<): each state word in decimal followed by a space,
     * then the index of the next word to temper.
     */
    std::string text() const;

    /**
     * Load text() output: whitespace-separated decimal words, no sign.
     * Returns false, and leaves the engine untouched, when the text is
     * not exactly 312 words and an index of at most 312.
     */
    bool parseText(std::string_view text);

    bool operator==(const Mt19937_64 &) const = default;

  private:
    friend struct MtBlock; // the twist and fill bodies (rng.cc)

    /** Regenerate all words of state; the index restarts at 0. */
    void twist();

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555u;
        z ^= (z << 17) & 0x71d67fffeda60000u;
        z ^= (z << 37) & 0xfff7eee000000000u;
        z ^= z >> 43;
        return z;
    }

    result_type state_[kStateWords]; // every word set by the constructor
    size_t index_ = kStateWords;
};

/**
 * A seeded pseudo-random source: an Mt19937_64 with the handful of
 * distributions the project needs.
 */
class Rng
{
  public:
    /** Construct with an explicit seed. */
    explicit Rng(uint64_t seed = 0x5eed) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
    }

    /** Gaussian with the given mean and standard deviation. */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /**
     * @p n Gaussians into @p out: the same values, and the engine left
     * at the same position, as @p n gaussian() calls.
     */
    void fillGaussian(double *out, size_t n, double mean = 0.0,
                      double stddev = 1.0);

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /**
     * Poisson draw with the given mean (used for shot noise). A mean
     * that is not positive gives 0 and consumes one engine output, as
     * the library distribution's release build does; the library
     * requires a positive mean.
     */
    int64_t
    poisson(double mean)
    {
        if (!(mean > 0.0)) {
            engine_();
            return 0;
        }
        return std::poisson_distribution<int64_t>(mean)(engine_);
    }

    /** Access the underlying engine (e.g. for std::shuffle). */
    Mt19937_64 &engine() { return engine_; }

  private:
    Mt19937_64 engine_;
};

namespace detail {

/**
 * The body of Rng::fillGaussian compiled for the baseline instruction
 * set (SSE2 on x86-64). Exposed so tests can compare each build's
 * bits.
 */
void fillGaussianPortable(Mt19937_64 &engine, double *out, size_t n,
                          double mean, double stddev);

/** The same body compiled for AVX2. Call it only when cpuHasAvx2(). */
void fillGaussianAvx2(Mt19937_64 &engine, double *out, size_t n,
                      double mean, double stddev);

} // namespace detail

} // namespace eyecod

#endif // EYECOD_COMMON_RNG_H
