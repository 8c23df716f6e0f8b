/**
 * @file
 * Lightweight statistics helpers shared by the simulator and the
 * benchmark harnesses: running scalar statistics and formatted table
 * printing for the paper-style result rows.
 */

#ifndef EYECOD_COMMON_STATS_H
#define EYECOD_COMMON_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/snapshot.h"

namespace eyecod {

/**
 * Online mean / variance / min / max accumulator (Welford).
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / double(n_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /** Number of samples seen. */
    uint64_t count() const { return n_; }
    /** Sample mean (0 when empty). */
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance (0 when fewer than 2 samples). */
    double variance() const { return n_ > 1 ? m2_ / double(n_) : 0.0; }
    /** Population standard deviation. */
    double stddev() const { return std::sqrt(variance()); }
    /** Smallest sample (+inf when empty). */
    double min() const { return min_; }
    /** Largest sample (-inf when empty). */
    double max() const { return max_; }

    /** Field-wise encode (bit-exact, including the Welford m2). */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /** Field-wise decode; typed CorruptSnapshot on bad input. */
    Status
    restoreSnapshot(snap::SnapshotReader &r)
    {
        fields(*this, r);
        return r.status();
    }

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &s, Ar &ar)
    {
        ar.tag(0x52535431); // "RST1"
        ar.field(s.n_);
        ar.field(s.mean_);
        ar.field(s.m2_);
        ar.field(s.min_);
        ar.field(s.max_);
    }

  private:
    uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Exact percentile of a sample set with linear interpolation between
 * order statistics (the numpy "linear" convention): q = 0 is the
 * minimum, q = 1 the maximum, q = 0.5 the median. Takes the values by
 * copy (they are sorted internally). Returns 0 on an empty input.
 */
double percentile(std::vector<double> values, double q);

/**
 * Fixed-memory streaming quantile estimator over log-spaced buckets.
 *
 * Samples are counted into geometrically growing buckets between
 * @p lo and @p hi (values outside are clamped into the edge buckets;
 * the exact observed min/max are tracked separately and bound every
 * quantile answer). quantile() interpolates within the holding
 * bucket, so the relative error is bounded by the bucket width —
 * with the default 32 buckets per decade, under ~4%.
 *
 * The serving engine uses this for p50/p95/p99 frame-latency metrics:
 * O(buckets) memory regardless of stream length, deterministic
 * (integer counts, no sampling), and mergeable across sessions.
 */
class StreamingHistogram
{
  public:
    /**
     * @param lo lower edge of the bucketed range (> 0).
     * @param hi upper edge of the bucketed range (> lo).
     * @param buckets_per_decade resolution (>= 1).
     */
    StreamingHistogram(double lo, double hi,
                       int buckets_per_decade = 32);

    /** Count one sample. Non-finite samples are ignored. */
    void add(double x);

    /** Samples counted. */
    uint64_t count() const { return n_; }

    /** Exact smallest sample (+inf when empty). */
    double min() const { return min_; }
    /** Exact largest sample (-inf when empty). */
    double max() const { return max_; }

    /**
     * Estimated @p q quantile in [0, 1]; 0 when empty. Clamped to
     * the exact observed [min, max].
     */
    double quantile(double q) const;

    /** Shorthands for the serving latency metrics. */
    double p50() const { return quantile(0.50); }
    double p95() const { return quantile(0.95); }
    double p99() const { return quantile(0.99); }

    /**
     * Fold @p other into this histogram. Both must share (lo, hi,
     * buckets_per_decade); panics otherwise.
     */
    void merge(const StreamingHistogram &other);

    /** Field-wise encode (bucket counts + exact min/max). */
    void saveSnapshot(snap::SnapshotWriter &w) const { fields(*this, w); }

    /**
     * Field-wise decode into this histogram. The snapshot's (lo, hi,
     * buckets_per_decade) must match this instance's construction
     * parameters — a mismatch is a CorruptSnapshot error, since the
     * bucket geometry is part of the metric contract.
     */
    Status
    restoreSnapshot(snap::SnapshotReader &r)
    {
        fields(*this, r);
        return r.status();
    }

    /** Snapshot field list (common/snapshot.h). */
    template <class Self, class Ar>
    static void
    fields(Self &h, Ar &ar)
    {
        ar.tag(0x53485431); // "SHT1"
        ar.expect(h.lo_);
        ar.expect(h.hi_);
        ar.expect(h.per_decade_);
        ar.expect(uint64_t(h.buckets_.size()));
        for (auto &c : h.buckets_)
            ar.field(c);
        ar.field(h.n_);
        ar.field(h.min_);
        ar.field(h.max_);
    }

  private:
    /** Bucket index holding @p x (clamped to the edge buckets). */
    int bucketOf(double x) const;
    /** Lower value edge of bucket @p b. */
    double bucketLo(int b) const;

    double lo_ = 1.0;
    double hi_ = 10.0;
    int per_decade_ = 32;
    // Derived from the geometry in the ctor, so never snapshotted.
    double log_lo_ = 0.0;
    double inv_log_step_ = 1.0; ///< Buckets per unit log10.
    std::vector<uint64_t> buckets_;
    uint64_t n_ = 0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Fixed-column text table used by the bench binaries to print
 * paper-style rows.
 */
class TextTable
{
  public:
    /** Create with column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with the given number of decimals. */
std::string formatDouble(double v, int decimals = 2);

/** Format a count with SI-style suffixes (K/M/G/T). */
std::string formatSi(double v, int decimals = 2);

} // namespace eyecod

#endif // EYECOD_COMMON_STATS_H
