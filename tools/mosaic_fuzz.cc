/**
 * @file
 * Differential fuzzer driver: generates deterministic operation
 * traces, runs each real component in lockstep with its oracle, and
 * on divergence shrinks the trace to a minimal reproducer and writes
 * it to a file that `mosaic_replay` (or the corpus regression test)
 * can re-execute.
 *
 * Usage:
 *   mosaic_fuzz [--component NAME|all] [--seeds N] [--first-seed S]
 *               [--ops N] [--out DIR] [--emit]
 *
 * NAME is any fuzzComponents entry (oracle/fuzzer.hh); `all` runs
 * each of them.
 *
 * --emit also writes every PASSING trace to the out dir (named
 * <component>_seed<S>.trace) — used to regenerate the seed corpus.
 *
 * Exit status: 0 when every trace passed, 1 when any diverged,
 * 2 on usage errors.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"
#include "util/parse.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

struct Options
{
    std::string component = "all";
    std::uint64_t seeds = 10;
    std::uint64_t firstSeed = 1;
    std::size_t ops = 20000;
    std::string outDir = ".";
    bool emit = false;
};

int
usage()
{
    std::cerr << "usage: mosaic_fuzz [--component ";
    for (const FuzzComponent &c : fuzzComponents)
        std::cerr << c.name << "|";
    std::cerr << "all]\n"
        "                   [--seeds N] [--first-seed S] [--ops N]\n"
        "                   [--out DIR] [--emit]\n";
    return 2;
}

bool
componentKnown(const std::string &c)
{
    if (c == "all")
        return true;
    for (const FuzzComponent &k : fuzzComponents) {
        if (c == k.name)
            return true;
    }
    return false;
}

/**
 * Strict numeric option parse on the shared parseUnsigned path
 * (util/parse.hh). strtoull-with-nullptr used to turn a typo'd
 * value ("1O" for "10") into 0, and a sweep with --seeds 0 "passed"
 * having run nothing; malformed values are now a usage error whose
 * InvalidArgument message names the flag and quotes the offender.
 */
bool
parseCount(const char *flag, const char *v, std::uint64_t *out)
{
    if (!v) {
        std::cerr << "mosaic_fuzz: missing value for " << flag << "\n";
        return false;
    }
    const Result<std::uint64_t> parsed = parseUnsigned(flag, v);
    if (!parsed.ok()) {
        std::cerr << "mosaic_fuzz: " << parsed.status().toString()
                  << "\n";
        return false;
    }
    *out = parsed.value();
    return true;
}

bool
parseArgs(int argc, char **argv, Options *opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--component") {
            const char *v = next();
            if (!v)
                return false;
            opts->component = v;
        } else if (arg == "--seeds") {
            if (!parseCount("--seeds", next(), &opts->seeds))
                return false;
        } else if (arg == "--first-seed") {
            if (!parseCount("--first-seed", next(), &opts->firstSeed))
                return false;
        } else if (arg == "--ops") {
            std::uint64_t ops = 0;
            if (!parseCount("--ops", next(), &ops))
                return false;
            opts->ops = static_cast<std::size_t>(ops);
        } else if (arg == "--out") {
            const char *v = next();
            if (!v)
                return false;
            opts->outDir = v;
        } else if (arg == "--emit") {
            opts->emit = true;
        } else {
            return false;
        }
    }
    if (!componentKnown(opts->component))
        return false;
    if (opts->seeds == 0 || opts->ops == 0) {
        std::cerr << "mosaic_fuzz: --seeds and --ops must be > 0\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, &opts))
        return usage();

    std::vector<std::string> components;
    if (opts.component == "all") {
        for (const FuzzComponent &c : fuzzComponents)
            components.emplace_back(c.name);
    } else {
        components = {opts.component};
    }

    struct Job
    {
        std::string component;
        std::uint64_t seed = 0;
    };
    std::vector<Job> jobs;
    for (const std::string &c : components) {
        for (std::uint64_t s = 0; s < opts.seeds; ++s)
            jobs.push_back(Job{c, opts.firstSeed + s});
    }

    std::mutex outMutex;
    std::size_t failures = 0;
    parallelFor(jobs.size(), [&](std::size_t i) {
        const Job &job = jobs[i];
        const Trace trace =
            generateTrace(job.component, job.seed, opts.ops);
        const FuzzResult result = runTrace(trace);
        std::lock_guard<std::mutex> lock(outMutex);
        if (!result.divergence) {
            std::cout << job.component << " seed " << job.seed << ": ok, "
                      << result.opsApplied << " ops, digest "
                      << result.digest << "\n";
            if (opts.emit) {
                std::filesystem::create_directories(opts.outDir);
                const std::string path = opts.outDir + "/" +
                    job.component + "_seed" +
                    std::to_string(job.seed) + ".trace";
                // A failed corpus write must not kill the fuzz run:
                // report it and keep the remaining jobs going.
                const Status written = tryWriteTraceFile(path, trace);
                if (!written.ok())
                    std::cerr << written.toString() << "\n";
            }
            return;
        }
        ++failures;
        std::cout << job.component << " seed " << job.seed
                  << ": DIVERGED at op " << result.divergence->opIndex
                  << ": " << result.divergence->message << "\n";
        const Trace small = shrinkTrace(trace);
        const FuzzResult rerun = runTrace(small);
        const std::string path = opts.outDir + "/diverge_" +
            job.component + "_seed" + std::to_string(job.seed) + ".trace";
        std::filesystem::create_directories(opts.outDir);
        const Status written = tryWriteTraceFile(path, small);
        std::cout << "  shrunk " << trace.ops.size() << " -> "
                  << small.ops.size() << " ops ("
                  << (rerun.divergence ? rerun.divergence->message
                                       : std::string("no longer diverges?!"))
                  << ")\n  ";
        if (written.ok())
            std::cout << "wrote " << path << "\n";
        else
            std::cout << "could not write reproducer: "
                      << written.toString() << "\n";
    });

    if (failures != 0) {
        std::cout << failures << "/" << jobs.size()
                  << " traces diverged\n";
        return 1;
    }
    std::cout << "all " << jobs.size() << " traces passed\n";
    return 0;
}
