/**
 * @file
 * Exit-code contract tests for the command-line tools, run as real
 * subprocesses. mosaic_replay: 0 clean, 1 divergence, 2 usage, 3
 * unreadable input — CI scripts branch on these, so they are API.
 * mosaicd: 0 success, 1 runtime failure, 2 usage. perf_gate: 0
 * pass, 1 regression or failed ratio, 2 usage.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
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

/** Run a shell command, return its exit code (-1 on signal). */
int
exitCodeOf(const std::string &command)
{
    const int raw =
        std::system((command + " >/dev/null 2>&1").c_str());
    if (raw == -1 || !WIFEXITED(raw))
        return -1;
    return WEXITSTATUS(raw);
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

TEST(ToolsCli, ReplayUsageErrorsExitTwo)
{
    EXPECT_EQ(exitCodeOf(MOSAIC_REPLAY_BIN), 2);
    EXPECT_EQ(exitCodeOf(std::string(MOSAIC_REPLAY_BIN) +
                         " --batch=notanumber whatever.trace"),
              2);
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

    /** perf_gate's exit code with one --max-ratio spec. */
    int
    gate(const std::string &spec) const
    {
        return exitCodeOf(std::string(PERF_GATE_BIN) +
                          " --runs 1 --baseline-dir " + dir_ +
                          " --max-ratio '" + spec + "' " + binary_);
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
}
