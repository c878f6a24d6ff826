/**
 * @file
 * The benchmark executable: runs one workload for one seed and prints
 * a human-readable report, then one JSON line (the last line of
 * stdout) that run.py checks against the pinned outputs.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--threads T] [--work-dir DIR]
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig6_sweep|table4_swap|tenants_churn|serve_mix --seed N "
                 "--seconds S --trace 0|1 [--threads T] [--work-dir DIR]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + " needs an unsigned integer, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            opts.seconds = static_cast<double>(parseUnsigned(flag, value));
            have_seconds = opts.seconds >= 1;
        } else if (flag == "--trace") {
            const std::uint64_t t = parseUnsigned(flag, value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            opts.trace = t == 1;
            have_trace = true;
        } else if (flag == "--threads") {
            opts.threads = static_cast<unsigned>(parseUnsigned(flag, value));
            if (opts.threads == 0 || opts.threads > 64)
                usage("--threads takes 1..64");
        } else if (flag == "--work-dir") {
            opts.workDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opts.workload.empty() || !have_seed || !have_seconds ||
            !have_trace)
        usage("--workload, --seed, --seconds (>= 1) and --trace are "
              "required");
    if (opts.workDir.empty())
        opts.workDir = ".bench_build/work";
    return opts;
}

/**
 * Knobs that would silently change which code paths run: refused, so
 * every run measures the defaults. MOSAIC_THREADS sizes
 * ThreadPool::shared() (which ShardedMosaicVm::touchBatch always
 * uses) and is pinned here, before that pool first exists.
 */
void
pinEnvironment(const Options &opts)
{
    static const char *const refused[] = {"MOSAIC_BATCH", "MOSAIC_FULL_POOL",
                                          "MOSAIC_FAULTS",
                                          "MOSAIC_RESUME_DIR"};
    std::string report = "env:";
    bool bad = false;
    for (const char *name : refused) {
        const char *v = std::getenv(name);
        const bool set = v != nullptr && v[0] != '\0';
        report += std::string(" ") + name + "=" + (set ? v : "unset");
        bad = bad || set;
    }
    const char *ambient = std::getenv("MOSAIC_THREADS");
    const std::string threads = std::to_string(opts.threads);
    setenv("MOSAIC_THREADS", threads.c_str(), 1);
    std::printf("%s MOSAIC_THREADS=%s (pinned; ambient %s)\n",
                report.c_str(), threads.c_str(),
                ambient ? ambient : "unset");
    if (bad) {
        std::fprintf(stderr, "perfbench: unset MOSAIC_BATCH, "
                             "MOSAIC_FULL_POOL, MOSAIC_FAULTS and "
                             "MOSAIC_RESUME_DIR; the benchmark measures "
                             "the default paths\n");
        std::exit(2);
    }
}

std::string
jsonString(const std::string &s)
{
    std::string out(1, '"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (c == '\n' || c == '\t') ? ' ' : c;
    }
    out += '"';
    return out;
}

/** Appends @p items to @p out, comma-separated, each by @p emit. */
template <typename Items, typename Emit>
void
appendList(std::string &out, const Items &items, Emit &&emit)
{
    bool first = true;
    for (const auto &item : items) {
        if (!first)
            out += ',';
        emit(item);
        first = false;
    }
}

void
printJson(const Options &opts, const RunResult &r)
{
    std::string out = "{\"workload\":";
    out += jsonString(opts.workload);
    out += ",\"seed\":";
    out += std::to_string(opts.seed);
    out += opts.trace ? ",\"trace\":1" : ",\"trace\":0";
    out += ",\"attempted\":";
    out += std::to_string(r.attempted);
    out += ",\"failed\":";
    out += std::to_string(r.failed);
    out += ",\"violations\":[";
    appendList(out, r.violations,
               [&](const std::string &v) { out += jsonString(v); });
    out += "],\"outputs\":{";
    appendList(out, r.outputs, [&](const auto &entry) {
        out += jsonString(entry.first);
        out += ":[";
        appendList(out, entry.second, [&](std::uint64_t v) {
            out += std::to_string(v);
        });
        out += ']';
    });
    out += "},\"metrics\":{";
    appendList(out, r.metrics, [&](const auto &entry) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(entry.second) ? entry.second : 0.0);
        out += jsonString(entry.first);
        out += ':';
        out += num;
    });
    std::printf("%s}}\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    pinEnvironment(opts);
    std::filesystem::create_directories(opts.workDir);

    RunResult (*run)(const Options &, Tracer *) = nullptr;
    if (opts.workload == "fig6_sweep")
        run = runFig6Sweep;
    else if (opts.workload == "table4_swap")
        run = runTable4Swap;
    else if (opts.workload == "tenants_churn")
        run = runTenantsChurn;
    else if (opts.workload == "serve_mix")
        run = runServeMix;
    else
        usage("unknown workload '" + opts.workload + "'");

    Tracer tracer;
    RunResult result;
    try {
        result = run(opts, opts.trace ? &tracer : nullptr);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const std::string &v : result.violations)
        std::printf("CHECK FAILED: %s\n", v.c_str());
    if (!result.violations.empty())
        result.failed = result.attempted;
    result.metrics["peak_rss_mb"] = peakRssMb();
    result.metrics["failed_frac"] =
        result.attempted == 0 ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);

    if (opts.trace) {
        const std::string path = opts.workDir + "/trace-" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
        if (!tracer.write(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("spans: %s\n", path.c_str());
    }
    printJson(opts, result);
    return 0;
}
