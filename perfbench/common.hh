/**
 * @file
 * Shared plumbing of the repository benchmark (NOTES.md): options,
 * the in-memory span tracer, the round loop, and the result every
 * workload returns.
 *
 * Every workload runs in rounds. A round is a set-up (timed on its
 * own, reported as setup_s) followed by a timed phase that calls only
 * into the simulator. Round 0 warms caches and the allocator and is
 * checked but not measured; measured rounds repeat until their timed
 * phases cover the requested seconds, and the headline figures are
 * medians over them. With tracing on, measured rounds alternate
 * untraced and traced, so one traced run also measures what its spans
 * cost.
 */

#ifndef PERFBENCH_COMMON_HH_
#define PERFBENCH_COMMON_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tlb/tlb_stats.hh"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Workers of every pool the benchmark sizes; the calling thread
     *  also runs pool items, so workers + 1 threads compute. */
    unsigned threads = 2;

    /** Scratch directory (WAL files, span dumps). */
    std::string workDir;
};

/** Monotonic nanoseconds (steady clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/**
 * Spans (name, start, end, parent) kept in memory and written once,
 * at exit. Names must be string literals (spans store the pointer).
 * Thread-safe: pool workers record concurrently.
 */
class Tracer
{
  public:
    static constexpr std::int32_t noParent = -1;

    struct Span
    {
        const char *name = nullptr;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int32_t parent = noParent;
    };

    /** Record a finished span; returns its id. */
    std::int32_t record(const char *name, std::int64_t start_ns,
                        std::int64_t end_ns,
                        std::int32_t parent = noParent);

    /** Open a span now; close() stamps its end. */
    std::int32_t open(const char *name, std::int32_t parent = noParent);
    void close(std::int32_t id);

    /** Durations (ns) of every span called @p name, in record order. */
    std::vector<double> durationsNs(const char *name) const;

    /** Sum of those durations, in seconds. */
    double totalSeconds(const char *name) const;

    /** Write every span as JSON (times relative to the first span). */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a null tracer makes it free (untraced rounds). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name,
               std::int32_t parent = Tracer::noParent)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, parent) : Tracer::noParent)
    {
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::int32_t id_;
};

/** What one workload run produced. */
struct RunResult
{
    /** Operations attempted and failed (sheds, failed cells). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Failed correctness checks; any entry fails the whole run. */
    std::vector<std::string> violations;

    /** Exact simulated outputs, compared against the pinned values. */
    std::map<std::string, std::vector<std::uint64_t>> outputs;

    /** Metric values by name (end-to-end and per-layer). */
    std::map<std::string, double> metrics;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
};

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/** Nearest-rank percentile, @p q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);

/** FNV-1a over the 8 bytes of @p v (the repo's digest convention). */
inline void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ull;
    }
}

constexpr std::uint64_t fnvBasis = 1469598103934665603ull;

/**
 * The round loop's bookkeeping (see the file comment): round 0 is the
 * warm-up, and measured round r is traced when tracing is on and r is
 * odd.
 */
class RoundLog
{
  public:
    explicit RoundLog(const Options &opts) : opts_(opts) {}

    /** Rounds run so far, the warm-up included. */
    unsigned rounds() const { return rounds_; }

    bool more() const;

    /** Whether the next round is the unmeasured warm-up. */
    bool nextWarmUp() const { return rounds_ == 0; }

    /** Whether the next round records spans. */
    bool
    nextTraced() const
    {
        return opts_.trace && rounds_ > 0 && rounds_ % 2 == 0;
    }

    /** Record one round: its set-up seconds, timed seconds, and the
     *  references per second its timed phase achieved. */
    void add(double setup_s, double timed_s, double rate, bool traced);

    /** Measured rounds that recorded spans. */
    unsigned
    tracedRounds() const
    {
        return static_cast<unsigned>(tracedRates_.size());
    }

    /** setup_s, refs_per_s (untraced rounds) and, when traced,
     *  bench.trace_overhead_pct from the two medians. */
    void finish(RunResult &result) const;

  private:
    static constexpr unsigned minMeasured = 4;

    const Options &opts_;
    unsigned rounds_ = 0;
    std::vector<double> setup_;
    std::vector<double> plainRates_;
    std::vector<double> tracedRates_;
    double timed_ = 0.0;
};

/** Sum the counters of @p s into @p total. */
void addTlbStats(mosaic::TlbStats &total, const mosaic::TlbStats &s);

/** The tlb / pt / mem per-layer counts: vanilla and mosaic TLB
 *  counters, page-table walks, and pages demand-mapped. */
void putTlbMetrics(RunResult &result, const mosaic::TlbStats &vanilla,
                   const mosaic::TlbStats &mosaic, std::uint64_t walks,
                   std::uint64_t mapped);

/** Peak resident set of this process, MiB. */
double peakRssMb();

// One entry point per workload (NOTES.md says why each exists).
RunResult runFig6Sweep(const Options &opts, Tracer *tracer);
RunResult runTable4Swap(const Options &opts, Tracer *tracer);
RunResult runTenantsChurn(const Options &opts, Tracer *tracer);
RunResult runServeMix(const Options &opts, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH_
