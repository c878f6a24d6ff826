/**
 * @file
 * TLB design-space explorer: run any of the four paper workloads
 * against a user-chosen grid of TLB associativities and mosaic
 * arities, printing the Figure 6-style miss matrix. Useful for
 * poking at configurations the paper didn't plot (e.g. tiny TLBs,
 * arity 2... er, 1).
 *
 * Usage: tlb_explorer [workload] [scale] [entries]
 *   workload: graph500|btree|gups|xsbench|kvstore (default graph500)
 *   scale:    workload size multiplier, > 0       (default 0.25)
 *   entries:  TLB entries, a positive multiple of 8 (default 1024)
 *
 * A malformed or out-of-range argument prints the usage line and
 * exits 2.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "core/experiments.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace mosaic;

namespace
{

int
usage(const char *argv0, const std::string &error)
{
    if (!error.empty())
        std::fprintf(stderr, "%s: %s\n", argv0, error.c_str());
    std::fprintf(stderr,
                 "usage: %s [graph500|btree|gups|xsbench|kvstore] "
                 "[scale > 0] [entries: positive multiple of 8]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadKind kind = WorkloadKind::Graph500;
    if (argc > 1) {
        const std::string name = argv[1];
        if (name == "btree")
            kind = WorkloadKind::BTree;
        else if (name == "gups")
            kind = WorkloadKind::Gups;
        else if (name == "xsbench")
            kind = WorkloadKind::XsBench;
        else if (name == "kvstore")
            kind = WorkloadKind::KvStore;
        else if (name != "graph500")
            return usage(argv[0], "unknown workload '" + name + "'");
    }

    Fig6Options options;
    options.scale = 0.25;
    options.tlbEntries = 1024;
    if (argc > 2) {
        const Result<double> scale = parseFinite("scale", argv[2]);
        if (!scale.ok())
            return usage(argv[0], scale.status().toString());
        if (scale.value() <= 0.0)
            return usage(argv[0], "scale must be positive, got '" +
                                      std::string(argv[2]) + "'");
        options.scale = scale.value();
    }
    if (argc > 3) {
        // A multiple of 8 divides into every swept associativity
        // (1, 2, 4, 8 and fully associative).
        unsigned entries = 0;
        if (!parseU32(argv[3], &entries) || entries == 0 ||
                entries % 8 != 0)
            return usage(argv[0], "entries must be a positive multiple "
                                  "of 8, got '" +
                                      std::string(argv[3]) + "'");
        options.tlbEntries = entries;
    }
    options.waysList = {1, 2, 4, 8, options.tlbEntries};
    options.arities = {1, 4, 8, 16, 32, 64};

    std::printf("tlb explorer: %s, scale %.3g, %u-entry TLB\n",
                workloadName(kind).c_str(), options.scale,
                options.tlbEntries);

    const Fig6Result r = runFig6(kind, options);
    std::printf("footprint %.1f MiB, %llu references\n\n",
                r.footprintBytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(r.accesses));

    std::vector<std::string> headers{"assoc", "Vanilla"};
    for (const unsigned a : r.arities)
        headers.push_back("Mosaic-" + std::to_string(a));
    TextTable table(std::move(headers));
    for (const Fig6Row &row : r.rows) {
        table.beginRow();
        table.cell(row.ways == 1 ? std::string("Direct")
                                 : (row.ways >= options.tlbEntries
                                        ? std::string("Full")
                                        : std::to_string(row.ways) +
                                              "-Way"));
        table.cell(row.vanillaMisses);
        for (const std::uint64_t misses : row.mosaicMisses)
            table.cell(misses);
    }
    table.print(std::cout);

    std::printf("\nNote: Mosaic-1 isolates the encoding change "
                "(no reach gain); comparing it to Vanilla shows the "
                "pure cost/benefit of compressed entries.\n");
    return 0;
}
