/**
 * @file
 * Regenerates Table 4: swap I/O under increasing over-commit,
 * default Linux allocator + global LRU vs the mosaic allocator +
 * Horizon LRU, for Graph500, XSBench, and BTree.
 *
 * Expected shape (paper §4.3): at the smallest footprint (just over
 * memory) Mosaic swaps more (red cells: Linux utilizes ~1 % more
 * memory); past that edge case Mosaic matches or beats Linux, by up
 * to ~29 % in the best case, with the gap shrinking again at very
 * large over-commit.
 *
 * Knobs: MOSAIC_T4_FRAMES (default 16384 frames = 64 MiB),
 * MOSAIC_T4_STEPS (footprint steps, default 5; paper used 10),
 * MOSAIC_T4_RUNS (default 1; paper used 5).
 */

#include <iostream>
#include <iterator>
#include <vector>

#include "bench_common.hh"
#include "core/experiment_export.hh"
#include "core/experiments.hh"
#include "fault/sweep.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

int
main()
{
    const auto frames = static_cast<std::size_t>(
        bench::envLong("MOSAIC_T4_FRAMES", 16 * 1024));
    const auto steps = static_cast<unsigned>(
        bench::envLong("MOSAIC_T4_STEPS", 5));
    const auto runs = static_cast<unsigned>(
        bench::envLong("MOSAIC_T4_RUNS", 1));

    std::cout << "Table 4 reproduction: swap I/O, Linux vs Mosaic "
                 "(Horizon LRU)\n"
              << "memory=" << frames << " frames ("
              << frames * pageSize / (1024.0 * 1024.0)
              << " MiB, MOSAIC_T4_FRAMES), steps=" << steps
              << " (MOSAIC_T4_STEPS), runs=" << runs
              << " (MOSAIC_T4_RUNS)\n\n";

    // One task per (workload, footprint-step) row; repetitions nest
    // through the same pool.
    const WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::XsBench,
                                  WorkloadKind::BTree};
    constexpr std::size_t num_kinds = std::size(kinds);

    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    auto report = bench::makeReport("table4_swapping",
                                    Table4Options{}.seed,
                                    pool.threadCount());
    report.config("memFrames", static_cast<std::uint64_t>(frames));
    report.config("steps", static_cast<std::uint64_t>(steps));
    report.config("runs", static_cast<std::uint64_t>(runs));

    // Resilient sweep (DESIGN.md §11): per-row isolation and
    // MOSAIC_RESUME_DIR checkpoint/resume.
    fault::SweepOptions sweep_options = fault::SweepOptions::fromEnv();
    {
        char fp[120];
        std::snprintf(fp, sizeof fp,
                      "table4 frames=%zu steps=%u runs=%u seed=%llu",
                      frames, steps, runs,
                      static_cast<unsigned long long>(
                          Table4Options{}.seed));
        sweep_options.fingerprint = fp;
    }
    fault::SweepRunner runner("table4", sweep_options);

    std::vector<Table4Row> rows(num_kinds * steps);
    const fault::SweepStats sweep = runner.run(
        pool, rows.size(),
        [&](std::size_t i) {
            return metricWorkloadKey(kinds[i / steps]) + ".step" +
                   std::to_string(i % steps);
        },
        [&](std::size_t i) {
            const unsigned k = static_cast<unsigned>(i % steps);
            // Paper's ladder: 1.0151 + k * 0.0625 (up to 1.577 at
            // ten steps).
            Table4Options options;
            options.memFrames = frames;
            options.footprintFactor =
                1.0151 + 0.0625 * (k * (steps > 1 ? 9.0 / (steps - 1)
                                                  : 0.0));
            options.runs = runs;
            rows[i] = runTable4(kinds[i / steps], options, pool);
        },
        [&](std::size_t i) { return encodeTable4Row(rows[i]); },
        [&](std::size_t i, const std::string &payload) {
            const Status s = decodeTable4Row(payload, &rows[i]);
            if (!s.ok())
                std::cerr << "table4: discarding checkpoint row " << i
                          << ": " << s.toString() << "\n";
            return s.ok();
        });
    bench::recordSweep(report, std::cout, runner, sweep);

    double cell_seconds = 0.0;
    for (std::size_t p = 0; p < num_kinds; ++p) {
        TextTable table({"Footprint(MiB)", "Linux (pages)",
                         "Mosaic (pages)", "Difference (%)"});
        for (unsigned k = 0; k < steps; ++k) {
            const Table4Row &row = rows[p * steps + k];
            // A permanently failed row never ran: skip it (the
            // sweep manifest above carries the failure).
            if (row.linuxSwapIo.count() == 0 &&
                    row.mosaicSwapIo.count() == 0)
                continue;
            cell_seconds += row.cellSeconds;
            recordTable4(report.metrics(), row);
            table.beginRow()
                .cell(static_cast<double>(row.footprintBytes) /
                          (1024.0 * 1024.0),
                      0)
                .cell(row.linuxSwapIo.mean(), 0)
                .cell(row.mosaicSwapIo.mean(), 0)
                .cell(row.differencePct(), 2);
        }
        std::cout << "--- " << workloadName(kinds[p])
                  << " (positive difference = Mosaic swaps less) "
                     "---\n";
        bench::printTable(table, std::cout);
        std::cout << "\n";
    }

    bench::reportParallelism(std::cout, pool, timer.seconds(),
                             cell_seconds);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);
    std::cout << "\n";

    std::cout << "Paper reference: Mosaic is slightly worse only at "
                 "the smallest footprint (about -98 % Graph500, "
                 "-16 % XSBench, -19 % BTree), then wins by up to "
                 "29 % before the gap narrows at heavy "
                 "over-commit.\n";
    return 0;
}
