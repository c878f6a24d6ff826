/**
 * @file
 * Regenerates Figure 6 (a-d): TLB misses for Graph500, BTree, GUPS,
 * and XSBench under a vanilla TLB and Mosaic TLBs of arity 4-64,
 * across TLB associativities from direct-mapped to fully
 * associative (1024 entries, Table 1a).
 *
 * Expected shape (paper §4.1): Mosaic-4 cuts misses by 6-81 % on
 * Graph500/BTree/XSBench and less on GUPS; Mosaic is insensitive to
 * TLB associativity while vanilla gains from it; with the kernel
 * huge-page artifact on, a fully associative vanilla TLB can edge
 * out Mosaic-4 on Graph500.
 *
 * Knobs: MOSAIC_FIG6_SCALE (default 0.5) multiplies workload sizes;
 * the paper's footprints are gigabytes, so expect the absolute miss
 * counts to differ while the ratios hold. MOSAIC_FIG6_KERNEL=0
 * disables the kernel stream ("huge pages fully disabled").
 */

#include <cstdio>
#include <iostream>
#include <iterator>
#include <vector>

#include "bench_common.hh"
#include "core/experiment_export.hh"
#include "core/experiments.hh"
#include "fault/sweep.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace mosaic;

namespace
{

void
printPanel(const Fig6Result &r)
{
    std::cout << "\n--- Figure 6: " << workloadName(r.kind)
              << " (footprint "
              << r.footprintBytes / (1024.0 * 1024.0) << " MiB, "
              << withCommas(r.accesses) << " accesses) ---\n";

    std::vector<std::string> headers{"assoc", "Vanilla"};
    for (const unsigned a : r.arities)
        headers.push_back("Mosaic-" + std::to_string(a));
    TextTable table(std::move(headers));

    for (const Fig6Row &row : r.rows) {
        table.beginRow();
        table.cell(row.ways == 1
                       ? std::string("Direct")
                       : (row.ways >= 1024
                              ? std::string("Full")
                              : std::to_string(row.ways) + "-Way"));
        table.cell(row.vanillaMisses);
        for (const std::uint64_t m : row.mosaicMisses)
            table.cell(m);
        }
    bench::printTable(table, std::cout);

    // Paper-style headline: Mosaic-4 reduction vs vanilla per assoc.
    std::cout << "Mosaic-4 miss reduction vs vanilla:";
    for (const Fig6Row &row : r.rows) {
        std::printf(" %s=%.1f%%",
                    row.ways == 1 ? "direct"
                                  : (row.ways >= 1024
                                         ? "full"
                                         : (std::to_string(row.ways) +
                                            "way")
                                               .c_str()),
                    percentReduction(
                        static_cast<double>(row.vanillaMisses),
                        static_cast<double>(row.mosaicMisses.front())));
    }
    std::cout << "\n";
}

} // namespace

int
main()
{
    Fig6Options options;
    options.scale = bench::envDouble("MOSAIC_FIG6_SCALE", 0.5);
    options.kernelHugePages =
        bench::envLong("MOSAIC_FIG6_KERNEL", 1) != 0;

    std::cout << "Figure 6 reproduction: TLB misses, vanilla vs "
                 "Mosaic-{4..64}, associativity sweep\n"
              << "scale=" << options.scale
              << " (MOSAIC_FIG6_SCALE), kernel huge pages "
              << (options.kernelHugePages ? "on" : "off")
              << " (MOSAIC_FIG6_KERNEL)\n";

    // Every (workload × ways) cell is an independent simulation:
    // flatten the whole grid onto the pool and print panels in the
    // paper's order once all cells are in.
    const WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::BTree,
                                  WorkloadKind::Gups,
                                  WorkloadKind::XsBench};
    constexpr std::size_t num_panels = std::size(kinds);
    const std::size_t ways_count = options.waysList.size();

    ThreadPool &pool = ThreadPool::shared();
    bench::WallTimer timer;

    auto report = bench::makeReport("fig6_tlb_misses", options.seed,
                                    pool.threadCount());
    report.config("scale", options.scale);
    report.config("kernelHugePages", options.kernelHugePages);
    report.config("tlbEntries",
                  static_cast<std::uint64_t>(options.tlbEntries));

    // Resilient sweep (DESIGN.md §11): each (workload × ways) cell
    // is isolated and — with MOSAIC_RESUME_DIR — resumable.
    fault::SweepOptions sweep_options = fault::SweepOptions::fromEnv();
    {
        char fp[120];
        std::snprintf(fp, sizeof fp,
                      "fig6 scale=%g kernel=%d seed=%llu tlb=%u",
                      options.scale, options.kernelHugePages ? 1 : 0,
                      static_cast<unsigned long long>(options.seed),
                      options.tlbEntries);
        sweep_options.fingerprint = fp;
    }
    fault::SweepRunner runner("fig6", sweep_options);

    std::vector<Fig6Cell> cells(num_panels * ways_count);
    const fault::SweepStats sweep = runner.run(
        pool, cells.size(),
        [&](std::size_t i) {
            return metricWorkloadKey(kinds[i / ways_count]) + ".ways" +
                   std::to_string(options.waysList[i % ways_count]);
        },
        [&](std::size_t i) {
            cells[i] = runFig6Cell(kinds[i / ways_count], options,
                                   i % ways_count);
        },
        [&](std::size_t i) { return encodeFig6Cell(cells[i]); },
        [&](std::size_t i, const std::string &payload) {
            const Status s = decodeFig6Cell(payload, &cells[i]);
            if (!s.ok())
                std::cerr << "fig6: discarding checkpoint cell " << i
                          << ": " << s.toString() << "\n";
            return s.ok();
        });
    bench::recordSweep(report, std::cout, runner, sweep);

    double cell_seconds = 0.0;
    for (std::size_t p = 0; p < num_panels; ++p) {
        Fig6Result result;
        result.kind = kinds[p];
        result.arities = options.arities;
        for (std::size_t w = 0; w < ways_count; ++w) {
            Fig6Cell &cell = cells[p * ways_count + w];
            // A permanently failed cell leaves its slot empty: give
            // it the expected shape (zero misses) so the panel still
            // renders and the surviving cells still report; the
            // failure itself is in the sweep manifest above.
            if (cell.row.ways == 0)
                cell.row.ways = options.waysList[w];
            cell.row.mosaicMisses.resize(options.arities.size(), 0);
            result.footprintBytes =
                std::max(result.footprintBytes, cell.footprintBytes);
            result.accesses = std::max(result.accesses, cell.accesses);
            cell_seconds += cell.seconds;
            result.rows.push_back(std::move(cell.row));
        }
        recordFig6(report.metrics(), result);
        printPanel(result);
    }

    std::cout << "\n";
    bench::reportParallelism(std::cout, pool, timer.seconds(),
                             cell_seconds);
    bench::finishReport(report, std::cout, timer.seconds(),
                        cell_seconds);

    std::cout << "\nPaper reference (gigabyte footprints): Mosaic-4 "
                 "reduces misses 6-81 % on Graph500/BTree/XSBench, "
                 "least on GUPS; Mosaic is insensitive to TLB "
                 "associativity.\n";
    return 0;
}
