/**
 * @file
 * Exit-code contract tests for the command-line tools, run as real
 * subprocesses. mosaic_replay: 0 clean, 1 divergence, 2 usage, 3
 * unreadable input — CI scripts branch on these, so they are API.
 * mosaicd: 0 success, 1 runtime failure, 2 usage.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
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
