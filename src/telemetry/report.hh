/**
 * @file
 * BenchReport: the machine-readable run artifact every bench and
 * experiment runner emits next to its stdout tables.
 *
 * A report is a RunManifest (which binary, which seed and config
 * knobs, how many worker threads), a Registry of metric values, and
 * the run's timings, serialized as `BENCH_<name>.json` in the
 * current directory (or $MOSAIC_JSON_DIR). Opt out with
 * MOSAIC_NO_JSON=1. The schema is documented in DESIGN.md §9.
 *
 * Timings live outside the "metrics" object: metric values are
 * deterministic (bit-identical at any thread count, DESIGN.md §8)
 * while wall-clock never is, and keeping them apart lets tests and
 * trajectory tooling compare the metrics section byte-for-byte.
 */

#ifndef MOSAIC_TELEMETRY_REPORT_HH_
#define MOSAIC_TELEMETRY_REPORT_HH_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "telemetry/registry.hh"
#include "util/status.hh"

namespace mosaic::telemetry
{

/** Identity and configuration of one bench/experiment run. */
struct RunManifest
{
    /** Bench name; also names the output file BENCH_<name>.json. */
    std::string bench;

    /** Root experiment seed. */
    std::uint64_t seed = 0;

    /** Worker threads the run used (PR 1's pool). */
    unsigned threads = 1;

    /** Remaining config knobs, stringified, sorted by name. */
    std::map<std::string, std::string> config;
};

/** Wall-clock timings of one run (never deterministic). */
struct RunTiming
{
    double wallSeconds = 0.0;

    /** Summed per-cell compute time (the serial-equivalent cost). */
    double serialSeconds = 0.0;

    /** Measured parallel efficiency; 0 when serialSeconds is 0. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? serialSeconds / wallSeconds : 0.0;
    }
};

/** One bench run's manifest + metrics + timing, JSON-serializable. */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench);

    RunManifest &manifest() { return manifest_; }
    const RunManifest &manifest() const { return manifest_; }

    Registry &metrics() { return metrics_; }
    const Registry &metrics() const { return metrics_; }

    RunTiming &timing() { return timing_; }

    /** Record a config knob (stringified deterministically). */
    void config(const std::string &name, const std::string &v);
    void config(const std::string &name, const char *v);
    void config(const std::string &name, double v);
    void config(const std::string &name, bool v);
    template <typename T>
        requires std::is_integral_v<T>
    void
    config(const std::string &name, T v)
    {
        config(name, std::to_string(v));
    }

    /** Serialize the full report as JSON. */
    void writeJson(std::ostream &os) const;

    /** Just the sorted "metrics" object (for byte comparisons). */
    std::string metricsJson() const;

    /**
     * Write BENCH_<name>.json to $MOSAIC_JSON_DIR (default: the
     * current directory) unless MOSAIC_NO_JSON is set. Returns the
     * path written; NotFound when MOSAIC_NO_JSON disables artifacts
     * (deliberate, not a failure) and IoError when the path can't be
     * opened or the write is short.
     */
    Result<std::string> tryWrite() const;

    /** The output path this report would write to. */
    std::string path() const;

    /** False when MOSAIC_NO_JSON disables JSON artifacts. */
    static bool jsonEnabled();

  private:
    RunManifest manifest_;
    Registry metrics_;
    RunTiming timing_;
};

} // namespace mosaic::telemetry

#endif // MOSAIC_TELEMETRY_REPORT_HH_
