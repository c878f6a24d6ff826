/**
 * @file
 * Regenerates Table 3: memory utilization under mosaic page
 * allocation at the first associativity conflict (the measured
 * 1 - delta) and in steady state, for Graph500, XSBench, and BTree
 * at four over-commit footprints.
 *
 * Expected shape (paper §4.2): first conflicts cluster around 98 %
 * utilization regardless of workload or footprint; steady-state
 * utilization exceeds 99.2 % (where default Linux starts swapping)
 * and climbs toward 100 % as the footprint grows.
 *
 * Knobs: MOSAIC_T3_FRAMES (physical frames, default 16384 = 64 MiB),
 * MOSAIC_T3_RUNS (repetitions per row, default 3; paper used 10).
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
        bench::envLong("MOSAIC_T3_FRAMES", 16 * 1024));
    const auto runs = static_cast<unsigned>(
        bench::envLong("MOSAIC_T3_RUNS", 3));

    // The paper's footprints, 4158..4924 MiB against a 4096 MiB
    // pool, as fractions: 1.0151 + k * 0.0625 for k = 0..3.
    const double factors[] = {1.0151, 1.0776, 1.1401, 1.2026};

    std::cout << "Table 3 reproduction: utilization at first "
                 "associativity conflict and steady state\n"
              << "memory=" << frames << " frames ("
              << frames * pageSize / (1024.0 * 1024.0)
              << " MiB, MOSAIC_T3_FRAMES), runs=" << runs
              << " (MOSAIC_T3_RUNS)\n\n";

    TextTable table({"Workload", "Footprint(MiB)",
                     "First conflict (1-delta) %", "+/-",
                     "Steady-state %", "+/-"});

    // One task per table row; each row additionally fans its
    // repetitions out through the same pool (parallelFor nests
    // safely), so all factor x workload x run cells overlap.
    const WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::XsBench,
                                  WorkloadKind::BTree};
    constexpr std::size_t num_kinds = std::size(kinds);
    constexpr std::size_t num_factors = std::size(factors);

    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    auto report = bench::makeReport("table3_utilization",
                                    Table3Options{}.seed,
                                    pool.threadCount());
    report.config("memFrames", static_cast<std::uint64_t>(frames));
    report.config("runs", static_cast<std::uint64_t>(runs));

    // Resilient sweep (DESIGN.md §11): per-row isolation and
    // MOSAIC_RESUME_DIR checkpoint/resume.
    fault::SweepOptions sweep_options = fault::SweepOptions::fromEnv();
    {
        char fp[120];
        std::snprintf(fp, sizeof fp,
                      "table3 frames=%zu runs=%u seed=%llu", frames,
                      runs,
                      static_cast<unsigned long long>(
                          Table3Options{}.seed));
        sweep_options.fingerprint = fp;
    }
    fault::SweepRunner runner("table3", sweep_options);

    std::vector<Table3Row> rows(num_factors * num_kinds);
    const fault::SweepStats sweep = runner.run(
        pool, rows.size(),
        [&](std::size_t i) {
            return metricWorkloadKey(kinds[i % num_kinds]) + ".factor" +
                   std::to_string(i / num_kinds);
        },
        [&](std::size_t i) {
            Table3Options options;
            options.memFrames = frames;
            options.footprintFactor = factors[i / num_kinds];
            options.runs = runs;
            rows[i] = runTable3(kinds[i % num_kinds], options, pool);
        },
        [&](std::size_t i) { return encodeTable3Row(rows[i]); },
        [&](std::size_t i, const std::string &payload) {
            const Status s = decodeTable3Row(payload, &rows[i]);
            if (!s.ok())
                std::cerr << "table3: discarding checkpoint row " << i
                          << ": " << s.toString() << "\n";
            return s.ok();
        });
    bench::recordSweep(report, std::cout, runner, sweep);

    double cell_seconds = 0.0;
    for (const Table3Row &row : rows) {
        // A permanently failed row never ran: skip it (the sweep
        // manifest above carries the failure).
        if (row.firstConflictPct.count() == 0)
            continue;
        cell_seconds += row.cellSeconds;
        recordTable3(report.metrics(), row);
        table.beginRow()
            .cell(workloadName(row.kind))
            .cell(static_cast<double>(row.footprintBytes) /
                      (1024.0 * 1024.0),
                  0)
            .cell(row.firstConflictPct.mean(), 2)
            .cell(row.firstConflictPct.stddev(), 2)
            .cell(row.steadyPct.mean(), 2)
            .cell(row.steadyPct.stddev(), 2);
    }
    bench::printTable(table, std::cout);

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer.seconds(),
                             cell_seconds);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nPaper reference: first conflict at ~98.0 % "
                 "(+/- 0.1) for every row; steady state 99.21 % "
                 "rising to ~100 % with footprint. Linux's default "
                 "allocator begins swapping at ~99.2 %.\n";
    return 0;
}
