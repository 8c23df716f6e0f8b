#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_set>

namespace perfbench {

namespace {

/** JSON string literal (quotes and control characters escaped). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Shortest text that reads back to exactly @p v. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
timevalSeconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
microsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return timevalSeconds(ru.ru_utime) + timevalSeconds(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

const char *
clockName(MetricClock clock)
{
    switch (clock) {
    case MetricClock::Wall:
        return "wall";
    case MetricClock::Virtual:
        return "virtual";
    case MetricClock::Modeled:
        return "modeled";
    case MetricClock::Exact:
        return "exact";
    }
    return "?";
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

bool
validMetricUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '/' || c == '%' || c == '.' || c == '-';
    });
}

bool
MetricSet::add(const std::string &name, const std::string &unit,
               MetricClock clock, double value)
{
    if (!validMetricName(name) || !validMetricUnit(unit) ||
        !std::isfinite(value))
        return false;
    for (const Metric &m : metrics_)
        if (m.name == name)
            return false;
    metrics_.push_back(Metric{name, unit, clock, value});
    return true;
}

std::string
MetricSet::table() const
{
    std::string out;
    char buf[160];
    for (const Metric &m : metrics_) {
        std::snprintf(buf, sizeof(buf), "  %-34s %16.6g %-9s %s\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      clockName(m.clock));
        out += buf;
    }
    return out;
}

std::string
MetricSet::json() const
{
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (i > 0)
            out += ", ";
        out += quote(m.name) + ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quote(m.unit) + "}";
    }
    return out + "}";
}

std::string
MetricSet::deterministicSignature() const
{
    std::string sig;
    char buf[64];
    for (const Metric &m : metrics_) {
        if (m.clock == MetricClock::Wall)
            continue;
        std::snprintf(buf, sizeof(buf), "=%a\n", m.value);
        sig += m.name + buf;
    }
    return sig;
}

SpanRecorder::SpanRecorder(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity), epoch_(Clock::now())
{
    if (enabled_)
        spans_.reserve(std::min<size_t>(capacity_, 1u << 16));
}

int64_t
SpanRecorder::record(const char *name, Clock::time_point start,
                     Clock::time_point end, int64_t parent,
                     int64_t frame)
{
    if (!enabled_)
        return -1;
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return -1;
    }
    spans_.push_back(Span{name, microsBetween(epoch_, start),
                          microsBetween(epoch_, end), parent, frame});
    return int64_t(spans_.size()) - 1;
}

std::vector<double>
SpanRecorder::durationsUs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.end_us - s.start_us);
    return out;
}

std::string
SpanRecorder::chromeTrace(const std::string &host_json) const
{
    std::string out = "{\"traceEvents\": [\n";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %lld, "
                      "\"frame\": %lld}}",
                      i > 0 ? ",\n" : "", s.name, s.start_us,
                      s.end_us - s.start_us, i, (long long)s.parent,
                      (long long)s.frame);
        out += buf;
    }
    out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": " +
           host_json + ", \"dropped_spans\": " +
           std::to_string(dropped_) + "}}\n";
    return out;
}

std::string
HostInfo::json() const
{
    return "{\"cpu_model\": " + quote(cpu_model) +
           ", \"hardware_threads\": " + std::to_string(hardware_threads) +
           ", \"nproc\": " + std::to_string(nproc) +
           ", \"compiler\": " + quote(compiler) +
           ", \"build_type\": " + quote(build_type) +
           ", \"git_sha\": " + quote(git_sha) +
           ", \"scheduler_threads\": " +
           std::to_string(scheduler_threads) + "}";
}

HostInfo
probeHost(const std::string &git_sha)
{
    HostInfo h;
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t start = line.find_first_not_of(" \t:", 10);
            if (start != std::string::npos)
                h.cpu_model = line.substr(start);
            break;
        }
    }
    if (h.cpu_model.empty())
        h.cpu_model = "unknown";
    h.hardware_threads = std::thread::hardware_concurrency();
    cpu_set_t set;
    CPU_ZERO(&set);
    h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? long(CPU_COUNT(&set))
                  : long(h.hardware_threads);
    h.compiler = PERFBENCH_COMPILER;
    h.build_type = PERFBENCH_BUILD_TYPE;
    h.git_sha = git_sha.empty() ? "unknown" : git_sha;
    return h;
}

void
Checks::require(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

void
checkAccounting(const FleetAccounting &a, Checks &checks)
{
    checks.require(a.submitted == a.completed + a.drops,
                   "accounting: submitted " + std::to_string(a.submitted) +
                       " != completed " + std::to_string(a.completed) +
                       " + drops " + std::to_string(a.drops));
    checks.require(a.drops == a.drops_backpressure +
                                  a.drops_shed_on_close +
                                  a.drops_rate_downgrade +
                                  a.drops_failover,
                   "accounting: drop reasons do not partition " +
                       std::to_string(a.drops) + " drops");
    checks.require(a.offered == a.submitted + a.rejected_session_frames,
                   "accounting: offered " + std::to_string(a.offered) +
                       " != submitted " + std::to_string(a.submitted) +
                       " + rejected-session frames " +
                       std::to_string(a.rejected_session_frames));
}

bool
matchServedGaze(const std::vector<long> &submitted,
                const std::vector<eyecod::serve::DropRecord> &drops,
                const std::vector<eyecod::dataset::GazeVec> &gaze_log,
                std::vector<ServedGaze> *out, std::string *error)
{
    using eyecod::serve::DropReason;
    std::unordered_set<long> shed;
    for (const eyecod::serve::DropRecord &d : drops)
        if (d.reason == DropReason::Backpressure ||
            d.reason == DropReason::RateDowngrade)
            shed.insert(d.frame_index);
    out->clear();
    size_t next = 0;
    for (long f : submitted) {
        if (shed.count(f))
            continue;
        if (next < gaze_log.size())
            out->push_back(ServedGaze{f, gaze_log[next]});
        ++next;
    }
    if (next != gaze_log.size()) {
        *error = "served-gaze count mismatch: " + std::to_string(next) +
                 " frames served by the accounting, " +
                 std::to_string(gaze_log.size()) + " gazes recorded";
        out->clear();
        return false;
    }
    return true;
}

} // namespace perfbench
