#include "sim/single_core_sim.h"

#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "trace/spec_suite.h"

namespace pdp
{

SimResult
makeSimResult(std::string benchmark, std::string policy,
              const CacheStats &llc, const TimingModel &timing)
{
    SimResult result;
    result.benchmark = std::move(benchmark);
    result.policy = std::move(policy);
    result.instructions = timing.instructions();
    result.cycles = timing.cycles();
    result.ipc = timing.ipc();
    result.llcAccesses = llc.accesses;
    result.llcHits = llc.hits;
    result.llcMisses = llc.misses;
    result.llcBypasses = llc.bypasses;
    result.mpki = result.instructions
        ? 1000.0 * static_cast<double>(llc.misses) /
              static_cast<double>(result.instructions)
        : 0.0;
    result.bypassFraction = llc.accesses
        ? static_cast<double>(llc.bypasses) /
              static_cast<double>(llc.accesses)
        : 0.0;
    return result;
}

SimResult
runSingleCore(AccessGenerator &gen, Hierarchy &hierarchy,
              const SimConfig &config)
{
    return std::move(runSingleCoreLockstep(gen, hierarchy.privateLevel(),
                                           {&hierarchy.llc()}, config)
                         .front());
}

SimResult
runSingleCore(const std::string &benchmark, const std::string &policy_spec,
              const SimConfig &config)
{
    auto gen = SpecSuite::make(benchmark);
    Hierarchy hierarchy(config.hierarchy, makePolicy(policy_spec));
    return runSingleCore(*gen, hierarchy, config);
}

} // namespace pdp
