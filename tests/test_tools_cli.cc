/**
 * @file
 * Exit-code contract tests for the command-line tools, run as real
 * subprocesses. mosaic_replay: 0 clean, 1 divergence, 2 usage, 3
 * unreadable input — CI scripts branch on these, so they are API.
 * mosaicd: 0 success, 1 runtime failure, 2 usage. perf_gate: 0
 * pass, 1 regression or failed ratio, 2 usage. tlb_explorer: 0
 * success, 2 usage. Bench binaries (reach_table stands for all of
 * them): 0 success, 1 when the BENCH_<name>.json write fails.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>

#include "oracle/fuzzer.hh"
#include "oracle/trace.hh"

namespace fs = std::filesystem;

using namespace mosaic;

namespace
{

class TempDir
{
  public:
    explicit TempDir(const std::string &leaf)
        : path_(fs::temp_directory_path() / leaf)
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** Run a shell command with its output redirected as @p redirect
 *  says; return its exit code (-1 on signal). */
int
exitCodeOf(const std::string &command,
           const std::string &redirect = ">/dev/null")
{
    const int raw =
        std::system((command + " " + redirect + " 2>/dev/null").c_str());
    if (raw == -1 || !WIFEXITED(raw))
        return -1;
    return WEXITSTATUS(raw);
}

/** Run @p command with stdout kept in file @p out and read back into
 *  @p text; return its exit code. */
int
stdoutOf(const std::string &command, const std::string &out,
         std::string *text)
{
    const int code = exitCodeOf(command, ">" + out);
    std::ifstream in(out);
    text->assign(std::istreambuf_iterator<char>(in), {});
    return code;
}

} // namespace

TEST(ToolsCli, ReplayCleanTraceExitsZero)
{
    const TempDir dir("tools_cli_replay_ok");
    const std::string trace = dir.str() + "/vm.trace";
    writeTraceFile(trace,
                           generateTrace("vm", 1, 200));
    EXPECT_EQ(exitCodeOf(std::string(MOSAIC_REPLAY_BIN) + " " +
                         trace),
              0);
}

TEST(ToolsCli, ReplayMissingFileExitsThree)
{
    const TempDir dir("tools_cli_replay_missing");
    EXPECT_EQ(exitCodeOf(std::string(MOSAIC_REPLAY_BIN) + " " +
                         dir.str() + "/nope.trace"),
              3);

    // Unreadable beats clean: a good file plus a missing one is
    // still exit 3.
    const std::string good = dir.str() + "/vm.trace";
    writeTraceFile(good,
                           generateTrace("vm", 2, 100));
    EXPECT_EQ(exitCodeOf(std::string(MOSAIC_REPLAY_BIN) + " " +
                         good + " " + dir.str() + "/nope.trace"),
              3);
}

TEST(ToolsCli, ReplayUnknownComponentExitsThree)
{
    // A well-formed trace naming no fuzz component is unreadable
    // input, not a crash.
    const TempDir dir("tools_cli_replay_bogus");
    const std::string bogus = dir.str() + "/bogus.trace";
    Trace trace;
    trace.component = "bogus";
    writeTraceFile(bogus, trace);
    EXPECT_EQ(exitCodeOf(std::string(MOSAIC_REPLAY_BIN) + " " + bogus),
              3);
}

TEST(ToolsCli, ReplayLocationIdShardTraceExitsThree)
{
    // A vm trace whose kind, policy or sharing cfg names no mode the
    // harnesses run (location-ID sharing is gone) is unreadable input,
    // not a crash or a silent fallback.
    const TempDir dir("tools_cli_replay_shard_locid");
    const struct
    {
        const char *component, *key, *value;
    } cases[] = {
        {"vm-shard", "sharing", "locid"},
        {"vm", "sharing", "locid"},
        {"vm", "policy", "horizn"},
        {"vm", "kind", "bogus"},
    };
    for (const auto &c : cases) {
        const std::string path =
            dir.str() + "/" + c.component + "_" + c.key + ".trace";
        Trace trace = generateTrace(c.component, 1, 50);
        trace.setCfg(c.key, c.value);
        writeTraceFile(path, trace);
        EXPECT_EQ(
            exitCodeOf(std::string(MOSAIC_REPLAY_BIN) + " " + path), 3)
            << c.component << " cfg " << c.key << " " << c.value;
    }
}

TEST(ToolsCli, ReplayUsageErrorsExitTwo)
{
    EXPECT_EQ(exitCodeOf(MOSAIC_REPLAY_BIN), 2);
    EXPECT_EQ(exitCodeOf(std::string(MOSAIC_REPLAY_BIN) +
                         " --batch=notanumber whatever.trace"),
              2);
}

TEST(ToolsCli, ReplayBatchShadowKeepsCorpusDigests)
{
    // The batched-pipeline shadow compares touchBatch against scalar
    // touches beside the primary run, so digests cannot move; an
    // oversized block is clamped, not refused.
    const TempDir dir("tools_cli_replay_batch");
    const std::string out = dir.str() + "/digests";
    const std::string traces =
        std::string(" " MOSAIC_FUZZ_CORPUS_DIR "/vm_seed1.trace") +
        " " MOSAIC_FUZZ_CORPUS_DIR "/vm-shard_seed1.trace";
    const std::string replay =
        std::string(MOSAIC_REPLAY_BIN) + " --digest";
    std::string scalar, batched, clamped;
    ASSERT_EQ(stdoutOf(replay + traces, out, &scalar), 0);
    ASSERT_EQ(stdoutOf(replay + " --batch=64" + traces, out, &batched),
              0);
    ASSERT_EQ(stdoutOf(replay + " --batch=1000000" + traces, out,
                       &clamped),
              0);
    EXPECT_EQ(std::count(scalar.begin(), scalar.end(), '\n'), 2);
    EXPECT_EQ(batched, scalar);
    EXPECT_EQ(clamped, scalar);
    EXPECT_EQ(exitCodeOf(replay + " --batch=notanumber" + traces), 2);
}

TEST(ToolsCli, MosaicdUsageErrorsExitTwo)
{
    EXPECT_EQ(exitCodeOf(MOSAICD_BIN), 2);
    const TempDir dir("tools_cli_mosaicd_badmix");
    EXPECT_EQ(exitCodeOf(std::string(MOSAICD_BIN) + " --dir=" +
                         dir.str() + " --mix=nosuchmix"),
              2);
    EXPECT_EQ(exitCodeOf(std::string(MOSAICD_BIN) + " --dir=" +
                         dir.str() + " --requests=banana"),
              2);
}

TEST(ToolsCli, MosaicdSmallRunExitsZeroAndRecoveryRefusalIsOne)
{
    const TempDir dir("tools_cli_mosaicd_run");
    EXPECT_EQ(exitCodeOf(std::string(MOSAICD_BIN) + " --dir=" +
                         dir.str() + "/fresh --requests=200 "
                         "--scale=0.02 --epoch=64 --digest"),
              0);
    // Recovering a directory that never existed is a runtime
    // failure, not a usage error.
    EXPECT_EQ(exitCodeOf(std::string(MOSAICD_BIN) + " --dir=" +
                         dir.str() + "/ghost --recover"),
              1);
}

TEST(ToolsCli, TlbExplorerUsageErrorsExitTwo)
{
    const std::string bin = TLB_EXPLORER_BIN;
    EXPECT_EQ(exitCodeOf(bin + " nosuchworkload"), 2);
    // Scale: strict finite parse, then positive.
    for (const char *scale : {"abc", "0", "-0.5", "0.1x", "nan"}) {
        EXPECT_EQ(exitCodeOf(bin + " gups " + scale), 2) << scale;
    }
    // Entries: a positive multiple of 8; no atoi wrap of "-1" into a
    // 4294967295-entry TLB and no "abc" as 0 entries.
    for (const char *entries : {"-1", "abc", "0", "100", "64x", ""}) {
        EXPECT_EQ(exitCodeOf(bin + " gups 0.01 '" + entries + "'"), 2)
            << entries;
    }
}

TEST(ToolsCli, TlbExplorerSmallRunExitsZero)
{
    EXPECT_EQ(exitCodeOf(std::string(TLB_EXPLORER_BIN) + " gups 0.01 64"),
              0);
}

TEST(ToolsCli, BenchJsonWriteFailureExitsOne)
{
    const TempDir dir("tools_cli_reach_table");
    const std::string bin = std::string(" ") + REACH_TABLE_BIN;
    const std::string env = "env -u MOSAIC_NO_JSON MOSAIC_JSON_DIR=";
    EXPECT_EQ(exitCodeOf(env + dir.str() + "/missing" + bin), 1);
    EXPECT_EQ(exitCodeOf(env + dir.str() + bin), 0);
    EXPECT_TRUE(fs::exists(dir.str() + "/BENCH_reach_table.json"));
}

namespace
{

/**
 * A stand-in google-benchmark binary for perf_gate: it writes fixed
 * CPU times for BM_X/1024 (300 ns), BM_X/4 (200 ns), BM_A (300 ns)
 * and BM_B (200 ns) to the --benchmark_out file, with a matching
 * baseline beside it.
 */
class FakeBench
{
  public:
    explicit FakeBench(const TempDir &dir)
        : binary_(dir.str() + "/micro_fake"), dir_(dir.str())
    {
        const char *names[] = {"BM_X/1024", "BM_X/4", "BM_A", "BM_B"};
        const int ns[] = {300, 200, 300, 200};
        std::string runs, baseline;
        for (int i = 0; i < 4; ++i) {
            const std::string sep = i ? "," : "";
            runs += sep + "{\"name\":\"" + names[i] +
                    "\",\"run_type\":\"iteration\",\"cpu_time\":" +
                    std::to_string(ns[i]) + ",\"time_unit\":\"ns\"}";
            baseline += sep + "\"" + names[i] + "\":" +
                        std::to_string(ns[i]);
        }
        std::ofstream(binary_)
            << "#!/bin/sh\n"
               "for a in \"$@\"; do case \"$a\" in\n"
               "  --benchmark_out=*) out=\"${a#--benchmark_out=}\";;\n"
               "esac; done\n"
               "cat > \"$out\" <<'EOF'\n"
               "{\"benchmarks\":["
            << runs << "]}\nEOF\n";
        fs::permissions(binary_, fs::perms::owner_all);
        std::ofstream(dir_ + "/micro_fake.json")
            << "{\"bench\":\"micro_fake\",\"benchmarks\":{"
            << baseline << "}}\n";
    }

    /** perf_gate's exit code with @p flags, under the environment
     *  assignments @p env. */
    int
    run(const std::string &flags, const std::string &env = "") const
    {
        return exitCodeOf(env + " " + PERF_GATE_BIN + " --baseline-dir " +
                          dir_ + " " + flags + " " + binary_);
    }

    /** perf_gate's exit code with one --max-ratio spec. */
    int
    gate(const std::string &spec) const
    {
        return run("--runs 1 --max-ratio '" + spec + "'");
    }

  private:
    std::string binary_;
    std::string dir_;
};

} // namespace

TEST(ToolsCli, PerfGateRatioSpecsSplitAtTheDenominator)
{
    const TempDir dir("tools_cli_perf_gate");
    const FakeBench bench(dir);
    // Plain names: 300/200 = 1.5.
    EXPECT_EQ(bench.gate("BM_A/BM_B:2.0"), 0);
    EXPECT_EQ(bench.gate("BM_A/BM_B:1.2"), 1);
    // Parameterised on both sides; a split at the first '/' would
    // look for "BM_X" and "1024/BM_X/4" and match nothing.
    EXPECT_EQ(bench.gate("BM_X/1024/BM_X/4:2.0"), 0);
    EXPECT_EQ(bench.gate("BM_X/1024/BM_X/4:1.2"), 1);
    EXPECT_EQ(bench.gate("BM_B/BM_X/1024:0.7"), 0);
    // Malformed specs are usage errors.
    EXPECT_EQ(bench.gate("BM_A:2.0"), 2);
    EXPECT_EQ(bench.gate("BM_A/BM_B"), 2);
    EXPECT_EQ(bench.gate("BM_A/BM_B:0"), 2);
    EXPECT_EQ(bench.gate("BM_A/BM_B:2x"), 2);
}

TEST(ToolsCli, PerfGateNumericOptionsAreStrict)
{
    const TempDir dir("tools_cli_perf_gate_numeric");
    const FakeBench bench(dir);
    EXPECT_EQ(bench.run("--runs 1 --tolerance 0.5"), 0);
    EXPECT_EQ(bench.run("--runs 1", "MOSAIC_PERF_TOL=0.5"), 0);
    EXPECT_EQ(bench.run("", "MOSAIC_PERF_RUNS=1"), 0);
    // A run count must be an integer >= 1: "-1" must not wrap to
    // 2^32-1 runs.
    EXPECT_EQ(bench.run("--runs -1"), 2);
    EXPECT_EQ(bench.run("--runs 0"), 2);
    EXPECT_EQ(bench.run("--runs 2x"), 2);
    // A tolerance must be a finite number >= 0.
    EXPECT_EQ(bench.run("--runs 1 --tolerance abc"), 2);
    EXPECT_EQ(bench.run("--runs 1 --tolerance -0.1"), 2);
    EXPECT_EQ(bench.run("--runs 1 --tolerance nan"), 2);
    // Malformed environment values are usage errors too, not
    // truncated ("0.6x" as 0.6) or silently replaced by the default.
    EXPECT_EQ(bench.run("--runs 1", "MOSAIC_PERF_TOL=0.6x"), 2);
    EXPECT_EQ(bench.run("", "MOSAIC_PERF_RUNS=abc"), 2);
    EXPECT_EQ(bench.run("", "MOSAIC_PERF_RUNS=0"), 2);
}
