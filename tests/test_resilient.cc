/**
 * @file
 * Tests for the resilient experiment engine (DESIGN.md §11):
 * SweepRunner cell isolation, injected cell crashes,
 * checkpoint/resume correctness (including fingerprint mismatches,
 * corrupt checkpoints and the recovery of failed cells), the
 * mid-sweep-kill test hook, and the experiment checkpoint codecs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment_export.hh"
#include "core/experiments.hh"
#include "fault/sweep.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

namespace fs = std::filesystem;

std::string
cellName(std::size_t i)
{
    return "cell" + std::to_string(i);
}

/** A scratch directory wiped on construction and destruction. */
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

TEST(SweepRunner, AllCellsSucceedCleanly)
{
    ThreadPool pool(4);
    fault::SweepRunner runner("t.clean", fault::SweepOptions{});
    std::vector<int> out(16, 0);
    const fault::SweepStats stats = runner.run(
        pool, out.size(), cellName,
        [&](std::size_t i) { out[i] = static_cast<int>(i) * 10; });
    EXPECT_TRUE(stats.allOk());
    EXPECT_EQ(stats.resumedCells, 0u);
    EXPECT_EQ(stats.checkpointedCells, 0u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 10);
}

TEST(SweepRunner, ThrowingCellIsIsolatedAndManifested)
{
    ThreadPool pool(4);
    fault::SweepRunner runner("t.isolate", fault::SweepOptions{});
    std::vector<int> out(8, 0);
    std::atomic<int> bodies{0};
    const fault::SweepStats stats = runner.run(
        pool, out.size(), cellName, [&](std::size_t i) {
            ++bodies;
            if (i == 3)
                throw std::runtime_error("cell 3 always explodes");
            out[i] = 1;
        });
    ASSERT_EQ(stats.failures.size(), 1u);
    EXPECT_EQ(stats.failures[0].cell, "cell3");
    EXPECT_NE(stats.failures[0].error.find("always explodes"),
              std::string::npos);
    EXPECT_FALSE(stats.allOk());
    // Each body ran exactly once: the failed cell is not retried.
    EXPECT_EQ(bodies.load(), static_cast<int>(out.size()));
    // Every other cell still ran.
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i == 3 ? 0 : 1) << i;
}

TEST(SweepRunner, InjectedAlwaysFailingCellCompletesTheSweep)
{
    // cell.run:p=1 makes every cell fail by injection — the
    // acceptance shape for "a cell that always fails": the sweep
    // still completes and reports.
    ::setenv("MOSAIC_FAULTS", "cell.run:p=1", 1);
    ThreadPool pool(4);
    fault::SweepRunner runner("t.inject", fault::SweepOptions{});
    ::unsetenv("MOSAIC_FAULTS");
    std::vector<int> out(5, 0);
    const fault::SweepStats stats = runner.run(
        pool, out.size(), cellName,
        [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(stats.failures.size(), out.size());
    EXPECT_EQ(stats.injectedCellFaults, out.size()); // one per cell
    for (const fault::CellFailure &f : stats.failures)
        EXPECT_NE(f.error.find("cell.run"), std::string::npos);
    for (const int v : out)
        EXPECT_EQ(v, 0); // the body never ran
}

TEST(SweepRunner, CheckpointThenResumeSkipsRecompute)
{
    const TempDir dir("mosaic_sweep_resume_test");
    fault::SweepOptions options;
    options.resumeDir = dir.str();
    options.fingerprint = "fp-v1";

    std::vector<int> out(6, 0);
    const auto save = [&](std::size_t i) {
        return std::to_string(out[i]);
    };
    const auto load = [&](std::size_t i, const std::string &payload) {
        out[i] = std::atoi(payload.c_str());
        return true;
    };

    ThreadPool pool(3);
    {
        fault::SweepRunner runner("t.ckpt", options);
        const fault::SweepStats stats = runner.run(
            pool, out.size(), cellName,
            [&](std::size_t i) { out[i] = static_cast<int>(i) + 100; },
            save, load);
        EXPECT_TRUE(stats.allOk());
        EXPECT_EQ(stats.checkpointedCells, out.size());
        EXPECT_EQ(stats.resumedCells, 0u);
    }

    // Second run, same dir + fingerprint: everything resumes, the
    // body must never run, and the merged results are identical.
    std::vector<int> again(6, 0);
    const auto load2 = [&](std::size_t i, const std::string &payload) {
        again[i] = std::atoi(payload.c_str());
        return true;
    };
    std::atomic<int> bodies{0};
    {
        fault::SweepRunner runner("t.ckpt", options);
        const fault::SweepStats stats = runner.run(
            pool, again.size(), cellName,
            [&](std::size_t) { ++bodies; },
            [&](std::size_t i) { return std::to_string(again[i]); },
            load2);
        EXPECT_TRUE(stats.allOk());
        EXPECT_EQ(stats.resumedCells, again.size());
        EXPECT_EQ(stats.checkpointedCells, 0u);
    }
    EXPECT_EQ(bodies.load(), 0);
    EXPECT_EQ(again, out);

    // Changed fingerprint: stale checkpoints are rejected and every
    // cell recomputes rather than silently merging old results.
    options.fingerprint = "fp-v2";
    std::atomic<int> recomputed{0};
    {
        fault::SweepRunner runner("t.ckpt", options);
        const fault::SweepStats stats = runner.run(
            pool, out.size(), cellName,
            [&](std::size_t i) {
                ++recomputed;
                out[i] = static_cast<int>(i) + 100;
            },
            save, load);
        EXPECT_EQ(stats.resumedCells, 0u);
        EXPECT_EQ(stats.checkpointedCells, out.size());
    }
    EXPECT_EQ(recomputed.load(), static_cast<int>(out.size()));
}

TEST(SweepRunner, FailedCellIsRecomputedOnResume)
{
    // Resume is the one recovery path: a failed cell leaves no
    // checkpoint, so re-running with the same directory recomputes
    // exactly that cell and merges it with the checkpointed rest.
    const TempDir dir("mosaic_sweep_recover_test");
    fault::SweepOptions options;
    options.resumeDir = dir.str();
    options.fingerprint = "fp";
    const auto value = [](std::size_t i) {
        return static_cast<int>(i) * 7 + 1;
    };

    ThreadPool pool(2);
    std::vector<int> out(4, 0);
    const auto save = [&](std::size_t i) {
        return std::to_string(out[i]);
    };
    const auto load = [&](std::size_t i, const std::string &payload) {
        out[i] = std::atoi(payload.c_str());
        return true;
    };
    {
        fault::SweepRunner runner("t.recover", options);
        const fault::SweepStats stats = runner.run(
            pool, out.size(), cellName,
            [&](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("cell 2 explodes");
                out[i] = value(i);
            },
            save, load);
        ASSERT_EQ(stats.failures.size(), 1u);
        EXPECT_EQ(stats.failures[0].cell, "cell2");
        EXPECT_EQ(stats.checkpointedCells, 3u);
        EXPECT_EQ(stats.resumedCells, 0u);
    }

    // Second run, same dir + fingerprint, nothing throws: the three
    // good cells resume and only cell 2's body runs.
    out.assign(out.size(), 0);
    std::vector<int> bodies(out.size(), 0); // per-index: race-free
    {
        fault::SweepRunner runner("t.recover", options);
        const fault::SweepStats stats = runner.run(
            pool, out.size(), cellName,
            [&](std::size_t i) {
                ++bodies[i];
                out[i] = value(i);
            },
            save, load);
        EXPECT_TRUE(stats.allOk());
        EXPECT_EQ(stats.resumedCells, 3u);
        EXPECT_EQ(stats.checkpointedCells, 1u);
    }
    EXPECT_EQ(bodies, (std::vector<int>{0, 0, 1, 0}));

    // The merged results equal an uninterrupted run's.
    std::vector<int> clean(out.size(), 0);
    fault::SweepRunner runner("t.recover.clean", fault::SweepOptions{});
    const fault::SweepStats stats = runner.run(
        pool, clean.size(), cellName,
        [&](std::size_t i) { clean[i] = value(i); });
    EXPECT_TRUE(stats.allOk());
    EXPECT_EQ(out, clean);
}

TEST(SweepRunner, CorruptCheckpointIsDiscardedAndRecomputed)
{
    const TempDir dir("mosaic_sweep_corrupt_test");
    fault::SweepOptions options;
    options.resumeDir = dir.str();
    options.fingerprint = "fp";

    std::vector<int> out(2, 0);
    const auto save = [&](std::size_t i) {
        return std::to_string(out[i]);
    };
    const auto load = [&](std::size_t i, const std::string &payload) {
        if (payload.find("garbage") != std::string::npos)
            return false;
        out[i] = std::atoi(payload.c_str());
        return true;
    };
    ThreadPool pool(2);
    const auto body = [&](std::size_t i) {
        out[i] = static_cast<int>(i) + 5;
    };
    {
        fault::SweepRunner runner("t.corrupt", options);
        (void)runner.run(pool, out.size(), cellName, body, save, load);
    }
    // Corrupt one checkpoint's payload (header intact).
    {
        std::ofstream f(dir.str() + "/t.corrupt.cell0.cell",
                        std::ios::trunc);
        f << "mosaic-cell-checkpoint v1\nfingerprint fp\ngarbage\n";
    }
    out.assign(2, 0);
    fault::SweepRunner runner("t.corrupt", options);
    const fault::SweepStats stats =
        runner.run(pool, out.size(), cellName, body, save, load);
    EXPECT_TRUE(stats.allOk());
    EXPECT_EQ(stats.resumedCells, 1u);       // cell1 resumed
    EXPECT_EQ(stats.checkpointedCells, 1u);  // cell0 recomputed
    EXPECT_EQ(out[0], 5);
    EXPECT_EQ(out[1], 6);
}

TEST(SweepRunnerDeathTest, DieAfterCellsExitsLikeAKilledRun)
{
    // The MOSAIC_SWEEP_DIE_AFTER hook must exit 130 (death by
    // SIGINT) after the requested number of fresh cells, leaving
    // their checkpoints durable — the CI resume-correctness job
    // builds on this.
    const TempDir dir("mosaic_sweep_die_test");
    EXPECT_EXIT(
        {
            fault::SweepOptions options;
            options.resumeDir = dir.str();
            options.fingerprint = "fp";
            options.dieAfterCells = 2;
            ThreadPool pool(1);
            fault::SweepRunner runner("t.die", options);
            std::vector<int> out(8, 0);
            (void)runner.run(
                pool, out.size(), cellName,
                [&](std::size_t i) { out[i] = 1; },
                [&](std::size_t i) { return std::to_string(out[i]); },
                [&](std::size_t i, const std::string &p) {
                    out[i] = std::atoi(p.c_str());
                    return true;
                });
        },
        ::testing::ExitedWithCode(130), "");
}

// ------------------------------------- experiment checkpoint codecs

TEST(ExperimentCodecs, Fig6CellRoundTrips)
{
    Fig6Cell cell;
    cell.row.ways = 8;
    cell.row.vanillaMisses = 123456789;
    cell.row.mosaicMisses = {11, 22, 33, 44, 55};
    cell.footprintBytes = 1ull << 33;
    cell.accesses = 987654321;
    cell.seconds = 3.14159265358979;

    Fig6Cell back;
    ASSERT_TRUE(decodeFig6Cell(encodeFig6Cell(cell), &back).ok());
    EXPECT_EQ(back.row.ways, cell.row.ways);
    EXPECT_EQ(back.row.vanillaMisses, cell.row.vanillaMisses);
    EXPECT_EQ(back.row.mosaicMisses, cell.row.mosaicMisses);
    EXPECT_EQ(back.footprintBytes, cell.footprintBytes);
    EXPECT_EQ(back.accesses, cell.accesses);
    EXPECT_EQ(back.seconds, cell.seconds); // bit-exact hexfloat
    EXPECT_EQ(encodeFig6Cell(back), encodeFig6Cell(cell));
}

TEST(ExperimentCodecs, Table3RowRoundTrips)
{
    Table3Row row;
    row.kind = WorkloadKind::XsBench;
    row.footprintBytes = 77777777;
    row.firstConflictPct.add(98.01);
    row.firstConflictPct.add(97.99);
    row.steadyPct.add(99.7);
    row.cellSeconds = 0.25;

    Table3Row back;
    ASSERT_TRUE(decodeTable3Row(encodeTable3Row(row), &back).ok());
    EXPECT_EQ(back.kind, row.kind);
    EXPECT_EQ(back.footprintBytes, row.footprintBytes);
    EXPECT_EQ(back.firstConflictPct.encode(),
              row.firstConflictPct.encode());
    EXPECT_EQ(back.steadyPct.encode(), row.steadyPct.encode());
    EXPECT_EQ(back.cellSeconds, row.cellSeconds);
}

TEST(ExperimentCodecs, Table4RowRoundTrips)
{
    Table4Row row;
    row.kind = WorkloadKind::BTree;
    row.footprintBytes = 424242;
    row.linuxSwapIo.add(1000.0);
    row.linuxSwapIo.add(1100.0);
    row.mosaicSwapIo.add(900.0);
    row.cellSeconds = 1.75;

    Table4Row back;
    ASSERT_TRUE(decodeTable4Row(encodeTable4Row(row), &back).ok());
    EXPECT_EQ(back.kind, row.kind);
    EXPECT_EQ(back.footprintBytes, row.footprintBytes);
    EXPECT_EQ(back.linuxSwapIo.encode(), row.linuxSwapIo.encode());
    EXPECT_EQ(back.mosaicSwapIo.encode(), row.mosaicSwapIo.encode());
    EXPECT_EQ(back.cellSeconds, row.cellSeconds);
}

TEST(ExperimentCodecs, MalformedPayloadsRejected)
{
    Fig6Cell cell;
    EXPECT_FALSE(decodeFig6Cell("", &cell).ok());
    EXPECT_FALSE(decodeFig6Cell("garbage\n", &cell).ok());
    EXPECT_FALSE(decodeFig6Cell("ways 4\nvanilla 1\n", &cell).ok());
    Table3Row t3;
    EXPECT_FALSE(decodeTable3Row("kind 0\nfootprint 1\n", &t3).ok());
    EXPECT_FALSE(decodeTable3Row(
        "kind 0\nfootprint 1\nfirstConflictPct nonsense\n", &t3).ok());
    Table4Row t4;
    EXPECT_FALSE(decodeTable4Row("not a row", &t4).ok());
}

// A corrupt numeric field used to strtoull into 0 and "decode"
// successfully, resuming a bogus row. Every such field must now be
// rejected as DataLoss naming the field, so the sweep runner
// recomputes the cell instead.
TEST(ExperimentCodecs, CorruptNumericFieldsAreDataLoss)
{
    Fig6Cell cell;
    cell.row.ways = 4;
    cell.row.vanillaMisses = 123;
    cell.row.mosaicMisses = {1, 2, 3};
    cell.footprintBytes = 1 << 20;
    cell.accesses = 42;
    cell.seconds = 0.5;
    const std::string good = encodeFig6Cell(cell);

    const auto corrupt = [&](const std::string &from,
                             const std::string &to) {
        std::string text = good;
        const std::size_t pos = text.find(from);
        EXPECT_NE(pos, std::string::npos);
        text.replace(pos, from.size(), to);
        return text;
    };

    Fig6Cell back;
    const Status hexWays =
        decodeFig6Cell(corrupt("ways 4", "ways 0x4"), &back);
    EXPECT_EQ(hexWays.code(), StatusCode::DataLoss);
    EXPECT_NE(hexWays.message().find("ways"), std::string::npos);

    const Status negVanilla =
        decodeFig6Cell(corrupt("vanilla 123", "vanilla -123"), &back);
    EXPECT_EQ(negVanilla.code(), StatusCode::DataLoss);

    const Status junkMosaic =
        decodeFig6Cell(corrupt("mosaic 1 2 3", "mosaic 1 2x 3"), &back);
    EXPECT_EQ(junkMosaic.code(), StatusCode::DataLoss);
    EXPECT_NE(junkMosaic.message().find("mosaic"), std::string::npos);

    const Status junkAccesses =
        decodeFig6Cell(corrupt("accesses 42", "accesses 42 extra"),
                       &back);
    EXPECT_EQ(junkAccesses.code(), StatusCode::DataLoss);

    Table3Row t3;
    const Status badKind = decodeTable3Row(
        "kind 99\nfootprint 1\nfirstConflictPct 0\nsteadyPct 0\n"
        "seconds 0x0p+0\n",
        &t3);
    EXPECT_EQ(badKind.code(), StatusCode::DataLoss);
    EXPECT_NE(badKind.message().find("kind"), std::string::npos);

    Table4Row t4;
    const Status badFootprint = decodeTable4Row(
        "kind 0\nfootprint 12junk\n", &t4);
    EXPECT_EQ(badFootprint.code(), StatusCode::DataLoss);
    EXPECT_NE(badFootprint.message().find("footprint"),
              std::string::npos);
}

} // namespace
} // namespace mosaic
