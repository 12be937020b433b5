#include "sim/static_pd_search.h"

#include "core/pdp_policy.h"
#include "sim/lockstep_sweep.h"
#include "trace/spec_suite.h"

namespace pdp
{

std::vector<uint32_t>
defaultPdGrid()
{
    return {16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 128,
            144, 160, 192, 224, 256};
}

StaticPdResult
bestStaticPd(const std::string &benchmark, bool bypass,
             const SimConfig &config, std::vector<uint32_t> grid)
{
    if (grid.empty())
        grid = defaultPdGrid();

    std::vector<std::function<std::unique_ptr<ReplacementPolicy>()>>
        factories;
    for (uint32_t pd : grid)
        factories.push_back([pd, bypass] {
            return bypass ? makeSpdpB(pd) : makeSpdpNb(pd);
        });
    auto gen = SpecSuite::make(benchmark);
    std::vector<SimResult> results =
        runSingleCoreLockstep(*gen, config, factories);

    StaticPdResult out;
    for (size_t i = 0; i < grid.size(); ++i) {
        // Strictly fewer misses wins: ties keep the earliest grid point.
        if (out.bestPd == 0 || results[i].llcMisses < out.best.llcMisses) {
            out.bestPd = grid[i];
            out.best = results[i];
        }
        out.sweep.emplace_back(grid[i], std::move(results[i]));
    }
    return out;
}

} // namespace pdp
