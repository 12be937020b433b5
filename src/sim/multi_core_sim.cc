#include "sim/multi_core_sim.h"

#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "partition/pdp_partition.h"
#include "partition/pipp.h"
#include "partition/ta_drrip.h"
#include "partition/ucp.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "sim/lockstep_sweep.h"
#include "sim/single_core_sim.h"
#include "trace/spec_suite.h"

namespace pdp
{

std::unique_ptr<ReplacementPolicy>
makeSharedPolicy(const std::string &spec, unsigned threads)
{
    if (spec == "LRU")
        return std::make_unique<LruPolicy>();
    if (spec == "DIP")
        return makeDip();
    if (spec == "TA-DRRIP")
        return std::make_unique<TaDrripPolicy>(threads);
    if (spec == "UCP")
        return std::make_unique<UcpPolicy>(threads);
    if (spec == "PIPP")
        return std::make_unique<PippPolicy>(threads);
    if (spec == "PDP-2")
        return makePdpPartition(threads, 2);
    if (spec == "PDP-3")
        return makePdpPartition(threads, 3);
    throw std::invalid_argument("unknown shared policy: " + spec);
}

double
standaloneIpc(const std::string &benchmark, const MultiCoreConfig &config)
{
    // Memoize per baseline run: every config field the run below reads
    // is in the key, so two configs that differ in any of them never
    // share a baseline.  This is the one piece of cross-job shared state
    // the experiment runner's workers may reach concurrently, so the map
    // is mutex-guarded.  The baseline run itself happens outside the
    // lock: two workers racing on the same key at worst duplicate a
    // deterministic computation and insert the identical value, which
    // keeps results independent of worker count.
    using Key =
        std::tuple<std::string, unsigned, uint64_t, uint64_t, TimingParams>;
    static std::mutex mutex;
    static std::map<Key, double> cache;
    const Key key{benchmark, config.cores, config.accessesPerThread,
                  config.warmupPerThread, config.timing};
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (auto it = cache.find(key); it != cache.end())
            return it->second;
    }

    SimConfig single;
    single.accesses = config.accessesPerThread;
    single.warmup = config.warmupPerThread;
    single.timing = config.timing;
    single.hierarchy.llc = CacheConfig::paperLlc(config.cores);
    auto gen = SpecSuite::make(benchmark);
    Hierarchy hierarchy(single.hierarchy, std::make_unique<LruPolicy>());
    const SimResult r = runSingleCore(*gen, hierarchy, single);

    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, r.ipc);
    return r.ipc;
}

namespace
{

/** A workload's threads interleaved round-robin by access, as one
 *  stream: the paper's multiprogrammed schedule. */
class RoundRobinGenerator final : public AccessGenerator
{
  public:
    RoundRobinGenerator(std::vector<GeneratorPtr> threads, std::string name)
        : threads_(std::move(threads)), name_(std::move(name))
    {}

    Access
    next() override
    {
        const Access access = threads_[turn_]->next();
        if (++turn_ == threads_.size())
            turn_ = 0;
        return access;
    }

    void
    reset() override
    {
        for (GeneratorPtr &thread : threads_)
            thread->reset();
        turn_ = 0;
    }

    const std::string &name() const override { return name_; }

  private:
    std::vector<GeneratorPtr> threads_;
    std::string name_;
    size_t turn_ = 0;
};

} // namespace

MultiCoreResult
runMultiCore(const WorkloadSpec &workload, const std::string &policy_spec,
             const MultiCoreConfig &config)
{
    const unsigned cores = static_cast<unsigned>(workload.benchmarks.size());

    // Whole rounds only: every thread makes exactly its share of the
    // warmup and of the measured accesses.
    SimConfig sim;
    sim.warmup = config.warmupPerThread * cores;
    sim.accesses = config.accessesPerThread * cores;
    sim.timing = config.timing;
    sim.hierarchy.numThreads = cores;
    sim.hierarchy.llc = CacheConfig::paperLlc(cores);
    sim.auditEvery = config.auditEvery;
    sim.auditFailFast = config.auditFailFast;
    sim.telemetry = config.telemetry;

    PrivateLevel front(sim.hierarchy.l2, cores);
    Cache llc(sim.hierarchy.llc, makeSharedPolicy(policy_spec, cores));
    RoundRobinGenerator gen(instantiate(workload), workload.label());
    ThreadTimedRun run = runThreadTimedLane(gen, front, llc, sim);

    std::vector<ThreadOutcome> outcomes(cores);
    for (unsigned t = 0; t < cores; ++t) {
        const TimingModel &timer = run.timers[t];
        ThreadOutcome &out = outcomes[t];
        out.benchmark = workload.benchmarks[t];
        out.ipc = timer.ipc();
        out.llcMisses = llc.stats().threadMisses[t];
        out.mpki = timer.instructions()
            ? 1000.0 * static_cast<double>(out.llcMisses) /
                  static_cast<double>(timer.instructions())
            : 0.0;
    }

    MultiCoreResult result;
    result.policy = policy_spec;
    result.threads = std::move(outcomes);

    double weighted = 0.0, throughput = 0.0, inv = 0.0;
    for (const ThreadOutcome &out : result.threads) {
        const double single = standaloneIpc(out.benchmark, config);
        weighted += single > 0 ? out.ipc / single : 0.0;
        throughput += out.ipc;
        inv += out.ipc > 0 ? single / out.ipc : 0.0;
    }
    result.weightedIpc = weighted;
    result.throughput = throughput;
    result.harmonicFairness =
        inv > 0 ? static_cast<double>(result.threads.size()) / inv : 0.0;
    result.auditsRun = run.lane.auditsRun;
    result.auditViolations = run.lane.auditViolations;
    result.telemetry = std::move(run.lane.telemetry);
    return result;
}

} // namespace pdp
