/**
 * @file
 * fig6_sweep: runFig6 for Graph500, BTree, GUPS and XSBench across
 * the 5 associativities x 5 arities grid, kernel stream on. Memory is
 * ample, so the time goes to the workload engines and core/tlb/pt.
 */

#include <cstdio>
#include <iterator>

#include "common.hh"
#include "core/experiments.hh"
#include "core/translation_sim.hh"
#include "workloads/access_sink.hh"
#include "workloads/factory.hh"

namespace perfbench
{

using namespace mosaic;

namespace
{

/** Small enough for ~1 s rounds on 3 threads (footprints 2-10 MiB,
 *  around the 4 MiB reach of a 1024-entry TLB). */
constexpr double sweepScale = 0.06;

constexpr WorkloadKind kinds[] = {WorkloadKind::Graph500,
                                  WorkloadKind::BTree, WorkloadKind::Gups,
                                  WorkloadKind::XsBench};
constexpr std::size_t numKinds = std::size(kinds);

/** Span names parallel to Fig6Options{}.waysList. */
constexpr const char *cellSpans[] = {
    "core.cell_s.ways1", "core.cell_s.ways2", "core.cell_s.ways4",
    "core.cell_s.ways8", "core.cell_s.ways1024"};

Fig6Options
sweepOptions(std::uint64_t seed)
{
    Fig6Options options;
    options.scale = sweepScale;
    options.seed = seed;
    return options;
}

/** One cell's row flattened: ways, vanilla misses, mosaic misses per
 *  arity. */
void
appendRow(std::vector<std::uint64_t> &table, const Fig6Row &row)
{
    table.push_back(row.ways);
    table.push_back(row.vanillaMisses);
    table.insert(table.end(), row.mosaicMisses.begin(),
                 row.mosaicMisses.end());
}

struct Round
{
    /** Kind-major, ways-minor miss table. */
    std::vector<std::uint64_t> table;

    /** TLB references over all cells (workload + kernel stream). */
    std::uint64_t refs = 0;
    double seconds = 0.0;
};

/**
 * One sweep: all 20 cells as one parallelFor of runFig6Cell, the
 * shape bench/fig6_tlb_misses runs (runFig6 is the same loop over one
 * panel's cells). A span wraps each cell when @p tracer is set.
 */
Round
sweepRound(const Fig6Options &options, ThreadPool &pool, Tracer *tracer)
{
    const std::size_t ways = options.waysList.size();
    std::vector<Fig6Cell> cells(numKinds * ways);
    const std::int64_t start = nowNs();
    {
        ScopedSpan round_span(tracer, "fig6.round");
        parallelFor(pool, cells.size(), [&](std::size_t i) {
            ScopedSpan span(tracer, cellSpans[i % ways], round_span.id());
            cells[i] = runFig6Cell(kinds[i / ways], options, i % ways);
        });
    }
    Round round;
    round.seconds = secondsSince(start);
    for (const Fig6Cell &cell : cells) {
        round.refs += cell.accesses;
        appendRow(round.table, cell.row);
    }
    return round;
}

/** TLB counters of one cell rebuilt from public config. */
struct RebuiltCell
{
    Fig6Row row;
    TlbStats vanilla;
    std::vector<TlbStats> mosaic; // parallel to arities
    std::uint64_t mappedPages = 0;
};

/** runFig6Cell's simulation, rebuilt from public config so its TLB
 *  counters can be read (MOSAIC_FULL_POOL and MOSAIC_BATCH are
 *  refused, so the scalar path below is the one the cell takes). */
RebuiltCell
rebuildCell(WorkloadKind kind, const Fig6Options &options,
            std::size_t ways_index)
{
    const auto workload =
        makeFig6Workload(kind, options.scale, options.seed);
    TranslationSimConfig config;
    config.memory = ampleGeometry(workload->info().footprintBytes);
    config.tlbEntries = options.tlbEntries;
    config.waysList = {options.waysList.at(ways_index)};
    config.arities = options.arities;
    config.seed = options.seed;
    TranslationSim sim(config);
    workload->run(sim);

    RebuiltCell cell;
    cell.row.ways = options.waysList.at(ways_index);
    cell.vanilla = sim.vanillaStats(0);
    cell.row.vanillaMisses = cell.vanilla.misses;
    for (std::size_t a = 0; a < options.arities.size(); ++a) {
        cell.mosaic.push_back(sim.mosaicStats(0, a));
        cell.row.mosaicMisses.push_back(sim.mosaicStats(0, a).misses);
    }
    cell.mappedPages = sim.mappedPages();
    return cell;
}

/** Per-layer side passes of a traced run (outside the timed phase). */
void
traceLayers(const Fig6Options &options, ThreadPool &pool,
            Tracer &tracer, const std::vector<std::uint64_t> &table,
            unsigned traced_rounds, std::uint64_t tlb_refs,
            RunResult &result)
{
    auto &m = result.metrics;
    const std::size_t ways = options.waysList.size();

    // tlb / pt / mem: exact counts from rebuilt cells, which must
    // reproduce the sweep's miss table.
    std::vector<RebuiltCell> cells(numKinds * ways);
    parallelFor(pool, cells.size(), [&](std::size_t i) {
        cells[i] = rebuildCell(kinds[i / ways], options, i % ways);
    });
    std::vector<std::uint64_t> rebuilt;
    TlbStats vanilla, mosaic4;
    std::uint64_t walks = 0, mapped = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RebuiltCell &c = cells[i];
        appendRow(rebuilt, c.row);
        addTlbStats(vanilla, c.vanilla);
        addTlbStats(mosaic4, c.mosaic.at(0));
        walks += c.vanilla.misses;
        for (const TlbStats &s : c.mosaic)
            walks += s.misses;
        if (i % ways == 0)
            mapped += c.mappedPages;
    }
    result.check(rebuilt == table,
                 "fig6: cells rebuilt from public config differ from "
                 "runFig6Cell's miss table");
    putTlbMetrics(result, vanilla, mosaic4, walks, mapped);

    // workloads: every cell regenerates its panel's stream, so one
    // round consumes each stream `ways` times.
    std::uint64_t data_refs = 0;
    for (WorkloadKind kind : kinds) {
        ScopedSpan span(&tracer, "workloads.run");
        CountingSink sink;
        makeFig6Workload(kind, options.scale, options.seed)->run(sink);
        data_refs += sink.accesses();
    }
    const double gen_s =
        tracer.totalSeconds("workloads.run") * static_cast<double>(ways);

    // core: per-associativity cell seconds, per traced round.
    double cell_s = 0.0;
    for (const char *name : cellSpans) {
        const double s = tracer.totalSeconds(name) / traced_rounds;
        m[name] = s;
        cell_s += s;
    }
    m["workloads.runs"] = static_cast<double>(numKinds * ways);
    m["workloads.refs"] = static_cast<double>(data_refs * ways);
    m["workloads.gen_s"] = gen_s;
    m["workloads.gen_share"] = gen_s / cell_s;
    m["core.ns_per_ref"] = 1e9 * cell_s / static_cast<double>(tlb_refs);
    m["core.full_assoc_share"] =
        m["core.cell_s.ways1024"] / cell_s;
}

} // namespace

RunResult
runFig6Sweep(const Options &opts, Tracer *tracer)
{
    RunResult result;
    const Fig6Options options = sweepOptions(opts.seed);
    ThreadPool pool(opts.threads);

    RoundLog log(opts);
    std::vector<std::uint64_t> table;
    std::uint64_t tlb_refs = 0;
    while (log.more()) {
        // Set-up: build the four workload engines (the generators the
        // sweep's cells construct again, once per cell).
        const std::int64_t setup_start = nowNs();
        for (WorkloadKind kind : kinds)
            (void)makeFig6Workload(kind, options.scale, options.seed);
        const double setup_s = secondsSince(setup_start);

        const bool traced = log.nextTraced();
        const Round round =
            sweepRound(options, pool, traced ? tracer : nullptr);
        if (table.empty()) {
            table = round.table;
            tlb_refs = round.refs;
        }
        result.check(round.table == table && round.refs == tlb_refs,
                     "fig6: round " + std::to_string(log.rounds()) +
                         " differs from round 0");
        result.attempted += numKinds * options.waysList.size();
        log.add(setup_s, round.seconds,
                static_cast<double>(round.refs) / round.seconds, traced);
    }
    log.finish(result);

    // miss_cut_pct: Mosaic-4 against vanilla, summed over all cells.
    const std::size_t stride = 2 + options.arities.size();
    double vanilla = 0.0, mosaic4 = 0.0;
    for (std::size_t i = 0; i + stride <= table.size(); i += stride) {
        vanilla += static_cast<double>(table[i + 1]);
        mosaic4 += static_cast<double>(table[i + 2]);
    }
    result.metrics["miss_cut_pct"] = 100.0 * (vanilla - mosaic4) / vanilla;
    result.outputs["fig6.misses"] = table;
    result.outputs["fig6.tlb_refs"] = {tlb_refs};

    std::printf("fig6_sweep: scale %.2f, %zu panels x %zu ways x %zu "
                "arities, %u rounds, %llu TLB refs per round\n",
                sweepScale, numKinds, options.waysList.size(),
                options.arities.size(), log.rounds(),
                static_cast<unsigned long long>(tlb_refs));

    if (tracer)
        traceLayers(options, pool, *tracer, table, log.tracedRounds(),
                    tlb_refs, result);
    return result;
}

} // namespace perfbench
