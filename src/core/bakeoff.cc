#include "core/bakeoff.hh"

#include <chrono>

#include "core/experiment_export.hh"
#include "core/translation_sim.hh"
#include "tlb/design_registry.hh"

namespace mosaic
{

namespace
{

using Clock = std::chrono::steady_clock;

} // namespace

std::uint64_t
BakeoffDesignResult::metric(std::string_view key) const
{
    for (const auto &[name, value] : metrics) {
        if (name == key)
            return value;
    }
    return 0;
}

double
BakeoffDesignResult::missRate() const
{
    const std::uint64_t accesses = metric("accesses");
    if (accesses == 0)
        return 0.0;
    return static_cast<double>(metric("misses")) /
           static_cast<double>(accesses);
}

double
BakeoffDesignResult::walkRefsPerAccess() const
{
    const std::uint64_t accesses = metric("accesses");
    if (accesses == 0)
        return 0.0;
    return static_cast<double>(metric("walkRefs")) /
           static_cast<double>(accesses);
}

std::vector<std::string>
bakeoffSpecs(const BakeoffOptions &options, unsigned arity)
{
    const std::string a = std::to_string(arity);
    (void)options;
    return {
        "vanilla",
        "mosaic:arity=" + a,
        "coalesced",
        "perforated",
        "stride:base=mosaic,arity=" + a + ",mode=arbitrary",
        "pwc:base=mosaic,arity=" + a,
        "range",
    };
}

BakeoffCell
runBakeoffCell(WorkloadKind kind, const BakeoffOptions &options,
               std::size_t arity_index)
{
    const auto start = Clock::now();
    const unsigned arity = options.arities.at(arity_index);

    // One shared reference stream per workload (the bake-off compares
    // designs on the same trace), so the workload seed ignores the
    // cell index, exactly like Figure 6.
    const std::unique_ptr<Workload> workload =
        makeFig6Workload(kind, options.scale, options.seed);

    TranslationSimConfig config;
    config.memory = ampleGeometry(workload->info().footprintBytes);
    config.tlbEntries = options.tlbEntries;
    // The specs include their own vanilla and mosaic designs; no
    // grid TLB would be read.
    config.waysList = {};
    config.arities = {};
    config.kernel.accessEvery = 0;
    config.designWays = options.ways;
    config.designSpecs = bakeoffSpecs(options, arity);
    config.seed = options.seed;

    TranslationSim sim(config);
    workload->run(sim);

    BakeoffCell cell;
    cell.kind = kind;
    cell.arity = arity;
    cell.footprintBytes = workload->info().footprintBytes;
    cell.accesses = sim.totalAccesses();
    for (std::size_t i = 0; i < sim.numDesigns(); ++i) {
        const TranslationDesign &design = sim.design(i);
        BakeoffDesignResult result;
        result.name = design.name();
        result.kind =
            config.designSpecs[i].substr(0, config.designSpecs[i].find(':'));
        forEachDesignMetric(design,
                            [&](const char *name, std::uint64_t value) {
                                result.metrics.emplace_back(name, value);
                            });
        cell.designs.push_back(std::move(result));
    }
    cell.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return cell;
}

std::vector<BakeoffCell>
runBakeoff(const BakeoffOptions &options, ThreadPool &pool)
{
    const std::size_t arities = options.arities.size();
    std::vector<BakeoffCell> cells(options.kinds.size() * arities);
    parallelFor(pool, cells.size(), [&](std::size_t i) {
        cells[i] = runBakeoffCell(options.kinds[i / arities], options,
                                  i % arities);
    });
    return cells;
}

std::vector<BakeoffCell>
runBakeoff(const BakeoffOptions &options)
{
    return runBakeoff(options, ThreadPool::shared());
}

void
recordBakeoff(telemetry::Registry &r, const BakeoffCell &cell)
{
    const std::string base = "bakeoff." + metricWorkloadKey(cell.kind) +
                             ".arity" + std::to_string(cell.arity);
    r.counter(base + ".footprintBytes", cell.footprintBytes);
    r.counter(base + ".accesses", cell.accesses);
    for (const BakeoffDesignResult &design : cell.designs) {
        const std::string prefix = base + "." + design.kind + ".";
        for (const auto &[name, value] : design.metrics)
            r.counter(prefix + name, value);
    }
}

} // namespace mosaic
