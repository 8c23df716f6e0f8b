/**
 * @file
 * Machine-readable performance emitter: a flat two-level JSON store
 * ({"section": {"metric": number}}) that bench binaries merge into so
 * the perf trajectory is trackable across PRs.
 *
 * Runs append to an existing file (a rerun, or bench_runtime pointed
 * at another report), so load() parses the existing file and set()
 * overwrites only the touched metrics.
 * The parser accepts exactly the schema this writer produces; a
 * missing or malformed file yields an empty store.
 */

#ifndef EYECOD_COMMON_PERF_JSON_H
#define EYECOD_COMMON_PERF_JSON_H

#include <map>
#include <string>

namespace eyecod {

/**
 * A mergeable {section -> {metric -> value}} JSON document.
 */
class PerfJson
{
  public:
    PerfJson() = default;

    /** Parse @p path; returns an empty store on missing/bad input. */
    static PerfJson load(const std::string &path);

    /** Set (or overwrite) one metric. */
    void set(const std::string &section, const std::string &metric,
             double value);

    /** True when the metric exists. */
    bool has(const std::string &section,
             const std::string &metric) const;

    /** Read a metric; @p fallback when absent. */
    double get(const std::string &section, const std::string &metric,
               double fallback = 0.0) const;

    /** Number of sections. */
    size_t numSections() const { return sections_.size(); }

    /** Serialize to a JSON string. */
    std::string serialize() const;

    /** Write to @p path; returns false on I/O failure. */
    bool write(const std::string &path) const;

    /**
     * Convenience: load @p path, apply @p section/@p metric/@p value,
     * write back. Returns false on I/O failure.
     */
    static bool update(const std::string &path,
                       const std::string &section,
                       const std::string &metric, double value);

  private:
    std::map<std::string, std::map<std::string, double>> sections_;
};

} // namespace eyecod

#endif // EYECOD_COMMON_PERF_JSON_H
