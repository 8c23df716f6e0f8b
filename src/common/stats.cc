#include "common/stats.h"

#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace eyecod {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::sort(values.begin(), values.end());
    const double rank = q * double(values.size() - 1);
    const size_t below = size_t(rank);
    if (below + 1 >= values.size())
        return values.back();
    const double frac = rank - double(below);
    return values[below] * (1.0 - frac) + values[below + 1] * frac;
}

StreamingHistogram::StreamingHistogram(double lo, double hi,
                                       int buckets_per_decade)
    : lo_(lo), hi_(hi), per_decade_(buckets_per_decade)
{
    eyecod_assert(lo > 0.0 && hi > lo,
                  "StreamingHistogram range [%g, %g] invalid", lo, hi);
    eyecod_assert(buckets_per_decade >= 1,
                  "StreamingHistogram needs >= 1 bucket per decade");
    log_lo_ = std::log10(lo_);
    inv_log_step_ = double(per_decade_);
    const double decades = std::log10(hi_) - log_lo_;
    const int nbuckets =
        std::max(1, int(std::ceil(decades * inv_log_step_)));
    buckets_.assign(size_t(nbuckets), 0);
}

int
StreamingHistogram::bucketOf(double x) const
{
    if (x <= lo_)
        return 0;
    const int b = int((std::log10(x) - log_lo_) * inv_log_step_);
    return std::min(std::max(b, 0), int(buckets_.size()) - 1);
}

double
StreamingHistogram::bucketLo(int b) const
{
    return std::pow(10.0, log_lo_ + double(b) / inv_log_step_);
}

void
StreamingHistogram::add(double x)
{
    if (!std::isfinite(x))
        return;
    ++buckets_[size_t(bucketOf(x))];
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
StreamingHistogram::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the target sample (linear-interpolation convention,
    // matching percentile()).
    const double rank = q * double(n_ - 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
        const uint64_t c = buckets_[b];
        if (c == 0)
            continue;
        if (double(seen + c - 1) >= rank) {
            // Interpolate inside the bucket between its value edges.
            const double inside =
                c > 1 ? (rank - double(seen)) / double(c - 1) : 0.0;
            const double v_lo = bucketLo(int(b));
            const double v_hi = bucketLo(int(b) + 1);
            const double v =
                v_lo + (v_hi - v_lo) * std::min(1.0, std::max(0.0,
                                                              inside));
            return std::min(max_, std::max(min_, v));
        }
        seen += c;
    }
    return max_;
}

void
StreamingHistogram::merge(const StreamingHistogram &other)
{
    eyecod_assert(lo_ == other.lo_ && hi_ == other.hi_ &&
                      per_decade_ == other.per_decade_,
                  "merging histograms with different geometry");
    for (size_t b = 0; b < buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    eyecod_assert(cells.size() == headers_.size(),
                  "row arity %zu != header arity %zu",
                  cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_)
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size())
                os << std::string(widths[i] - row[i].size() + 2, ' ');
        }
        os << '\n';
    };
    emit_row(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
    return os.str();
}

std::string
formatDouble(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
formatSi(double v, int decimals)
{
    const char *suffix = "";
    double scaled = v;
    if (std::fabs(v) >= 1e12) {
        scaled = v / 1e12;
        suffix = "T";
    } else if (std::fabs(v) >= 1e9) {
        scaled = v / 1e9;
        suffix = "G";
    } else if (std::fabs(v) >= 1e6) {
        scaled = v / 1e6;
        suffix = "M";
    } else if (std::fabs(v) >= 1e3) {
        scaled = v / 1e3;
        suffix = "K";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%s", decimals, scaled, suffix);
    return buf;
}

} // namespace eyecod
