#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench
{

std::int32_t
Tracer::record(const char *name, std::int64_t start_ns,
               std::int64_t end_ns, std::int32_t parent)
{
    std::lock_guard lk(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t
Tracer::open(const char *name, std::int32_t parent)
{
    return record(name, nowNs(), 0, parent);
}

void
Tracer::close(std::int32_t id)
{
    const std::int64_t end = nowNs();
    std::lock_guard lk(mutex_);
    spans_.at(static_cast<std::size_t>(id)).endNs = end;
}

std::vector<double>
Tracer::durationsNs(const char *name) const
{
    std::vector<double> out;
    std::lock_guard lk(mutex_);
    for (const Span &s : spans_) {
        if (std::strcmp(s.name, name) == 0)
            out.push_back(static_cast<double>(s.endNs - s.startNs));
    }
    return out;
}

double
Tracer::totalSeconds(const char *name) const
{
    double ns = 0.0;
    for (double d : durationsNs(name))
        ns += d;
    return ns * 1e-9;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard lk(mutex_);
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d}%s\n",
                     i, s.name,
                     static_cast<long long>(s.startNs - base),
                     static_cast<long long>(s.endNs - base), s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

bool
RoundLog::more() const
{
    return setup_.size() < minMeasured || timed_ < opts_.seconds;
}

void
RoundLog::add(double setup_s, double timed_s, double rate, bool traced)
{
    std::printf("round %u: setup %.4f s, timed %.4f s, %.6g refs/s%s\n",
                rounds_, setup_s, timed_s, rate,
                rounds_ == 0 ? " (warm-up)" : traced ? " (traced)" : "");
    if (rounds_++ == 0)
        return;
    setup_.push_back(setup_s);
    timed_ += timed_s;
    (traced ? tracedRates_ : plainRates_).push_back(rate);
}

void
RoundLog::finish(RunResult &result) const
{
    result.metrics["setup_s"] = median(setup_);
    const double plain = median(plainRates_);
    result.metrics["refs_per_s"] = plain;
    if (!tracedRates_.empty() && plain > 0.0) {
        result.metrics["bench.trace_overhead_pct"] =
            100.0 * (plain - median(tracedRates_)) / plain;
    }
}

void
addTlbStats(mosaic::TlbStats &total, const mosaic::TlbStats &s)
{
    total.accesses += s.accesses;
    total.hits += s.hits;
    total.misses += s.misses;
    total.subEntryFills += s.subEntryFills;
    total.evictions += s.evictions;
    total.invalidations += s.invalidations;
}

void
putTlbMetrics(RunResult &result, const mosaic::TlbStats &vanilla,
              const mosaic::TlbStats &mosaic, std::uint64_t walks,
              std::uint64_t mapped)
{
    auto &m = result.metrics;
    m["tlb.vanilla.misses"] = static_cast<double>(vanilla.misses);
    m["tlb.vanilla.evictions"] = static_cast<double>(vanilla.evictions);
    m["tlb.mosaic.misses"] = static_cast<double>(mosaic.misses);
    m["tlb.mosaic.evictions"] = static_cast<double>(mosaic.evictions);
    m["tlb.mosaic.sub_entry_fills"] =
        static_cast<double>(mosaic.subEntryFills);
    m["pt.walks"] = static_cast<double>(walks);
    m["mem.mapped_pages"] = static_cast<double>(mapped);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
