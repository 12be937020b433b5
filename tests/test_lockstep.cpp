/**
 * @file
 * Tests for the lane engine (sim/lockstep_sweep.h), single- and
 * multi-core, and the runner's multi-record job fan-out
 * (Job::runMany).  The load-bearing property throughout is
 * byte-identity: lockstep execution must be
 * invisible in the results — the same SimResult fields, the same
 * telemetry, the same deterministic dumps — no matter how many lanes
 * share a decode or how many threads did the work.  The reference is a
 * frozen per-access driver kept in this file, so the engine is never
 * compared with itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/hierarchy.h"
#include "check/invariant_auditor.h"
#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "policies/rrip.h"
#include "runner/json.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "sim/lockstep_sweep.h"
#include "sim/multi_core_sim.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
#include "util/rng.h"

using namespace pdp;
using namespace pdp::runner;

namespace
{

using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

SimConfig
quickConfig()
{
    SimConfig config;
    config.accesses = 120'000;
    config.warmup = 30'000;
    return config;
}

/** Every SimResult field the deterministic dump carries, telemetry
 *  included.  Doubles are compared exactly: both sides must run the
 *  identical arithmetic. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.llcBypasses, b.llcBypasses);
    EXPECT_EQ(a.bypassFraction, b.bypassFraction);
    EXPECT_EQ(a.auditsRun, b.auditsRun);
    EXPECT_EQ(a.auditViolations, b.auditViolations);
    ASSERT_EQ(a.telemetry != nullptr, b.telemetry != nullptr);
    if (a.telemetry) {
        EXPECT_EQ(toJson(*a.telemetry, false).dump(),
                  toJson(*b.telemetry, false).dump());
    }
}

/**
 * The frozen oracle: the per-access single-core driver the lane engine
 * replaced — Hierarchy::access as it was, prefetch block included — so
 * the engine is checked against an independent implementation.
 */
class OracleHierarchy
{
  public:
    OracleHierarchy(const HierarchyConfig &config,
                    std::unique_ptr<ReplacementPolicy> policy, bool prefetch)
    {
        for (unsigned t = 0; t < config.numThreads; ++t)
            l2s_.push_back(std::make_unique<Cache>(
                config.l2, std::make_unique<LruPolicy>()));
        llc_ = std::make_unique<Cache>(config.llc, std::move(policy));
        if (prefetch)
            prefetcher_ = std::make_unique<StreamPrefetcher>();
    }

    Cache &llc() { return *llc_; }

    uint64_t
    prefetchesIssued() const
    {
        return prefetcher_ ? prefetcher_->issued() : 0;
    }

    HitLevel
    access(const Access &access)
    {
        HitLevel level = HitLevel::L2;
        AccessContext ctx;
        ctx.lineAddr = access.lineAddr;
        ctx.pc = access.pc;
        ctx.threadId = access.threadId;
        ctx.isWrite = access.isWrite;
        Cache &l2 =
            *l2s_[access.threadId < l2s_.size() ? access.threadId : 0];
        ctx.set = l2.setIndex(ctx.lineAddr);
        const AccessOutcome l2_out = l2.access(ctx);
        if (!l2_out.hit) {
            ctx.set = llc_->setIndex(ctx.lineAddr);
            const AccessOutcome llc_out = llc_->access(ctx);
            level = llc_out.hit ? HitLevel::Llc : HitLevel::Memory;
            if (l2_out.evictedValid && l2_out.evictedDirty)
                writeback(l2_out);
        }
        if (prefetcher_) {
            for (uint64_t addr :
                 prefetcher_->onDemand(access.lineAddr, !l2_out.hit)) {
                if (l2.contains(addr))
                    continue;
                AccessContext pf;
                pf.lineAddr = addr;
                pf.pc = access.pc;
                pf.threadId = access.threadId;
                pf.isPrefetch = true;
                if (!llc_->contains(addr)) {
                    pf.set = llc_->setIndex(addr);
                    llc_->access(pf);
                }
                pf.set = l2.setIndex(addr);
                const AccessOutcome l2_pf = l2.access(pf);
                if (l2_pf.evictedValid && l2_pf.evictedDirty)
                    writeback(l2_pf);
            }
        }
        return level;
    }

  private:
    void
    writeback(const AccessOutcome &l2_out)
    {
        AccessContext wb;
        wb.lineAddr = l2_out.evictedAddr;
        wb.set = llc_->setIndex(wb.lineAddr);
        wb.threadId = l2_out.evictedThread;
        wb.isWrite = true;
        wb.isWriteback = true;
        llc_->access(wb);
    }

    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;
};

/** The oracle's driver loop: warmup, then measured accesses ticking
 *  timing, the auditor and the epoch sampler once per access. */
SimResult
oracleRun(AccessGenerator &gen, std::unique_ptr<ReplacementPolicy> policy,
          const SimConfig &config, bool prefetch = false,
          uint64_t *prefetches = nullptr)
{
    OracleHierarchy hierarchy(config.hierarchy, std::move(policy),
                              prefetch);
    TimingModel timing(config.timing);
    std::unique_ptr<InvariantAuditor> auditor;
    if (config.auditEvery > 0) {
        InvariantAuditor::Options opts;
        opts.cadence = config.auditEvery;
        opts.failFast = config.auditFailFast;
        auditor = std::make_unique<InvariantAuditor>(opts);
        auditor->watchCache(hierarchy.llc());
    }
    std::unique_ptr<telemetry::EpochSampler> sampler;
    if (config.telemetry.enabled)
        sampler = std::make_unique<telemetry::EpochSampler>(
            config.telemetry, hierarchy.llc(), config.accesses,
            config.hierarchy.numThreads);

    for (uint64_t i = 0; i < config.warmup; ++i)
        hierarchy.access(gen.next());
    hierarchy.llc().resetStats();
    if (auditor)
        hierarchy.llc().setAuditor(auditor.get());
    if (sampler)
        sampler->beginMeasurement();
    for (uint64_t i = 0; i < config.accesses; ++i) {
        const Access access = gen.next();
        timing.onAccess(access.instrGap, hierarchy.access(access));
        if (sampler)
            sampler->onAccess();
    }

    SimResult result =
        makeSimResult(gen.name(), hierarchy.llc().policy().name(),
                      hierarchy.llc().stats(), timing);
    if (auditor) {
        hierarchy.llc().setAuditor(nullptr);
        auditor->auditNow();
        result.auditsRun = auditor->auditsRun();
        result.auditViolations = auditor->totalViolations();
    }
    if (sampler) {
        sampler->finish();
        result.telemetry = std::make_shared<telemetry::RunTelemetry>(
            sampler->take());
    }
    if (prefetches)
        *prefetches += hierarchy.prefetchesIssued();
    return result;
}

/** A benchmark's stream spread over `threads` thread ids in runs of 64
 *  accesses, so several private L2s see traffic. */
class SpreadGenerator : public AccessGenerator
{
  public:
    SpreadGenerator(GeneratorPtr inner, unsigned threads)
        : inner_(std::move(inner)), threads_(threads)
    {}

    Access
    next() override
    {
        Access access = inner_->next();
        access.threadId = static_cast<uint8_t>((n_++ / 64) % threads_);
        return access;
    }

    void
    reset() override
    {
        inner_->reset();
        n_ = 0;
    }

    const std::string &name() const override { return inner_->name(); }

  private:
    GeneratorPtr inner_;
    unsigned threads_;
    uint64_t n_ = 0;
};

GeneratorPtr
makeGen(const std::string &bench, uint64_t seed, unsigned threads)
{
    auto gen = SpecSuite::make(bench, seed);
    if (threads <= 1)
        return gen;
    return std::make_unique<SpreadGenerator>(std::move(gen), threads);
}

/** A benchmark stream, the policies to run on it, and whether the
 *  front end prefetches. */
struct Scenario
{
    std::string bench;
    uint64_t seed = 0;
    unsigned genThreads = 1;
    std::vector<PolicyFactory> factories;
    SimConfig config;
    bool prefetch = false;
};

/** One oracle run per policy; adds the prefetches they issued. */
std::vector<SimResult>
oracleRuns(const Scenario &s, uint64_t *prefetches = nullptr)
{
    std::vector<SimResult> results;
    for (const PolicyFactory &factory : s.factories) {
        auto gen = makeGen(s.bench, s.seed, s.genThreads);
        results.push_back(
            oracleRun(*gen, factory(), s.config, s.prefetch, prefetches));
    }
    return results;
}

/** Every policy as a lane of one engine call on a fresh front end. */
std::vector<SimResult>
laneRuns(const Scenario &s, unsigned threads)
{
    PrivateLevel front(s.config.hierarchy.l2,
                       s.config.hierarchy.numThreads);
    if (s.prefetch)
        front.attachPrefetcher(std::make_unique<StreamPrefetcher>());
    std::vector<std::unique_ptr<Cache>> owned;
    std::vector<Cache *> llcs;
    for (const PolicyFactory &factory : s.factories) {
        owned.push_back(
            std::make_unique<Cache>(s.config.hierarchy.llc, factory()));
        llcs.push_back(owned.back().get());
    }
    auto gen = makeGen(s.bench, s.seed, s.genThreads);
    return runSingleCoreLockstep(*gen, front, llcs, s.config, threads);
}

void
expectSameResults(const std::vector<SimResult> &lanes,
                  const std::vector<SimResult> &oracle)
{
    ASSERT_EQ(lanes.size(), oracle.size());
    for (size_t c = 0; c < lanes.size(); ++c) {
        SCOPED_TRACE(oracle[c].policy);
        expectSameResult(lanes[c], oracle[c]);
    }
}

/** The whole standard roster (PolicyFactory.BuildsEveryStandardSpec). */
std::vector<PolicyFactory>
rosterFactories()
{
    std::vector<PolicyFactory> factories;
    for (const std::string spec :
         {"LRU", "FIFO", "Random", "LIP", "BIP", "DIP", "SRRIP", "BRRIP",
          "DRRIP", "EELRU", "SDP", "SHiP", "PDP-2", "PDP-3", "PDP-8",
          "PDP-8-NB", "PDP-1INS", "SPDP-B:72", "SPDP-NB:64"})
        factories.push_back([spec] { return makePolicy(spec); });
    return factories;
}

PolicyFactory
pdpWithPrefetchMode(PdpParams::PrefetchMode mode)
{
    return [mode] {
        PdpParams params;
        params.prefetchMode = mode;
        return std::make_unique<PdpPolicy>(params);
    };
}

/** A seeded random geometry: a 512 KiB–2 MiB, 8/16-way LLC under a
 *  64–256 KiB, 4/8-way L2. */
SimConfig
randomGeometry(Rng &rng)
{
    SimConfig config;
    config.accesses = 40'000;
    config.warmup = 12'000;
    config.hierarchy.llc.sizeBytes = (512 * 1024) << rng.below(3);
    config.hierarchy.llc.ways = rng.below(2) ? 16 : 8;
    config.hierarchy.l2.sizeBytes = (64 * 1024) << rng.below(3);
    config.hierarchy.l2.ways = rng.below(2) ? 8 : 4;
    return config;
}

/** The whole roster on a benchmark, seed and geometry drawn from `rng`,
 *  then `tweak`ed, as lanes of one 3-thread call against one oracle run
 *  per policy.  Returns the prefetches the oracle runs issued. */
uint64_t
rosterMatchesOracle(Rng &rng, const std::function<void(Scenario &)> &tweak)
{
    const std::vector<std::string> benches = {"450.soplex", "482.sphinx3",
                                              "429.mcf", "470.lbm"};
    Scenario s;
    s.bench = benches[rng.below(benches.size())];
    s.seed = rng.next();
    s.factories = rosterFactories();
    s.config = randomGeometry(rng);
    tweak(s);
    s.config.hierarchy.numThreads = s.genThreads;
    SCOPED_TRACE(s.bench);
    uint64_t prefetches = 0;
    expectSameResults(laneRuns(s, /*threads=*/3), oracleRuns(s, &prefetches));
    return prefetches;
}

/** The stand-alone LRU IPC a multi-core baseline divides by, from the
 *  single-core oracle on the shared-size LLC (memoized per benchmark). */
double
oracleStandaloneIpc(const std::string &benchmark,
                    const MultiCoreConfig &config)
{
    static std::map<std::tuple<std::string, unsigned, uint64_t>, double>
        memo;
    const auto key =
        std::make_tuple(benchmark, config.cores, config.accessesPerThread);
    if (auto it = memo.find(key); it != memo.end())
        return it->second;
    SimConfig single;
    single.accesses = config.accessesPerThread;
    single.warmup = config.warmupPerThread;
    single.timing = config.timing;
    single.hierarchy.llc = CacheConfig::paperLlc(config.cores);
    auto gen = SpecSuite::make(benchmark);
    const double ipc =
        oracleRun(*gen, std::make_unique<LruPolicy>(), single).ipc;
    memo.emplace(key, ipc);
    return ipc;
}

/**
 * The frozen multi-core oracle: runMultiCore's per-access round-robin
 * loop as it was before it became a lane, on the oracle hierarchy.
 * Per-thread stats freeze at the access budget (every thread reaches it
 * in the same round).
 */
MultiCoreResult
oracleMultiCore(const WorkloadSpec &workload, const std::string &policy_spec,
                const MultiCoreConfig &config)
{
    const unsigned cores = static_cast<unsigned>(workload.benchmarks.size());
    HierarchyConfig hcfg;
    hcfg.numThreads = cores;
    hcfg.llc = CacheConfig::paperLlc(cores);
    OracleHierarchy hierarchy(hcfg, makeSharedPolicy(policy_spec, cores),
                              /*prefetch=*/false);
    auto generators = instantiate(workload);
    std::vector<TimingModel> timers(cores, TimingModel(config.timing));

    std::unique_ptr<InvariantAuditor> auditor;
    if (config.auditEvery > 0) {
        InvariantAuditor::Options opts;
        opts.cadence = config.auditEvery;
        opts.failFast = config.auditFailFast;
        auditor = std::make_unique<InvariantAuditor>(opts);
        auditor->watchCache(hierarchy.llc());
    }
    std::unique_ptr<telemetry::EpochSampler> sampler;
    if (config.telemetry.enabled)
        sampler = std::make_unique<telemetry::EpochSampler>(
            config.telemetry, hierarchy.llc(),
            config.accessesPerThread * cores, cores);

    for (uint64_t i = 0; i < config.warmupPerThread; ++i)
        for (unsigned t = 0; t < cores; ++t)
            hierarchy.access(generators[t]->next());
    hierarchy.llc().resetStats();
    if (auditor)
        hierarchy.llc().setAuditor(auditor.get());
    if (sampler)
        sampler->beginMeasurement();

    std::vector<ThreadOutcome> outcomes(cores);
    std::vector<uint64_t> measured(cores, 0);
    unsigned remaining = cores;
    while (remaining > 0) {
        for (unsigned t = 0; t < cores; ++t) {
            const Access access = generators[t]->next();
            const HitLevel level = hierarchy.access(access);
            if (sampler)
                sampler->onAccess();
            if (measured[t] >= config.accessesPerThread)
                continue;
            timers[t].onAccess(access.instrGap, level);
            if (++measured[t] == config.accessesPerThread) {
                ThreadOutcome &out = outcomes[t];
                out.benchmark = workload.benchmarks[t];
                out.ipc = timers[t].ipc();
                out.llcMisses = hierarchy.llc().stats().threadMisses[t];
                out.mpki = timers[t].instructions()
                    ? 1000.0 * static_cast<double>(out.llcMisses) /
                          static_cast<double>(timers[t].instructions())
                    : 0.0;
                --remaining;
            }
        }
    }

    MultiCoreResult result;
    result.policy = policy_spec;
    result.threads = std::move(outcomes);
    double weighted = 0.0, throughput = 0.0, inv = 0.0;
    for (const ThreadOutcome &out : result.threads) {
        const double single = oracleStandaloneIpc(out.benchmark, config);
        weighted += single > 0 ? out.ipc / single : 0.0;
        throughput += out.ipc;
        inv += out.ipc > 0 ? single / out.ipc : 0.0;
    }
    result.weightedIpc = weighted;
    result.throughput = throughput;
    result.harmonicFairness =
        inv > 0 ? static_cast<double>(result.threads.size()) / inv : 0.0;
    if (auditor) {
        hierarchy.llc().setAuditor(nullptr);
        auditor->auditNow();
        result.auditsRun = auditor->auditsRun();
        result.auditViolations = auditor->totalViolations();
    }
    if (sampler) {
        sampler->finish();
        result.telemetry = std::make_shared<telemetry::RunTelemetry>(
            sampler->take());
    }
    return result;
}

/** Every MultiCoreResult field, compared exactly. */
void
expectSameMultiCore(const MultiCoreResult &a, const MultiCoreResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (size_t t = 0; t < a.threads.size(); ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_EQ(a.threads[t].benchmark, b.threads[t].benchmark);
        EXPECT_EQ(a.threads[t].ipc, b.threads[t].ipc);
        EXPECT_EQ(a.threads[t].mpki, b.threads[t].mpki);
        EXPECT_EQ(a.threads[t].llcMisses, b.threads[t].llcMisses);
    }
    EXPECT_EQ(a.weightedIpc, b.weightedIpc);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.harmonicFairness, b.harmonicFairness);
    EXPECT_EQ(a.auditsRun, b.auditsRun);
    EXPECT_EQ(a.auditViolations, b.auditViolations);
    ASSERT_EQ(a.telemetry != nullptr, b.telemetry != nullptr);
    if (a.telemetry) {
        EXPECT_EQ(toJson(*a.telemetry, false).dump(),
                  toJson(*b.telemetry, false).dump());
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Lockstep sweep driver.

// The whole roster on a random geometry and benchmark seed per variant,
// with each observer and the prefetcher on in turn: every lane must match
// its own oracle run field for field, whatever global state (dueling,
// samplers, RNGs) the policy keeps.  One ctest entry per variant.

TEST(LockstepSweepTest, MatchesIndependentRuns)
{
    Rng rng(0x1a9e5);
    rosterMatchesOracle(rng, [](Scenario &) {});
}

TEST(LockstepSweepTest, MatchesIndependentRunsWithTelemetryAndTrace)
{
    Rng rng(0x7e1e5);
    rosterMatchesOracle(rng, [&](Scenario &s) {
        s.config.telemetry.enabled = true;
        s.config.telemetry.traceEvents = true;
        // Short epochs, so epoch edges fall between accesses of every
        // kind (L2 hits included).
        s.config.telemetry.interval = 500 + rng.below(3000);
    });
}

TEST(LockstepSweepTest, MatchesIndependentRunsWithAuditing)
{
    Rng rng(0xa0d17);
    rosterMatchesOracle(rng, [&](Scenario &s) {
        s.config.auditEvery = 1 + rng.below(32);
    });
}

TEST(LockstepSweepTest, MatchesIndependentRunsWithThePrefetcher)
{
    Rng rng(0x9f37c);
    const uint64_t prefetches = rosterMatchesOracle(rng, [](Scenario &s) {
        s.prefetch = true;
        for (auto mode : {PdpParams::PrefetchMode::Normal,
                          PdpParams::PrefetchMode::InsertPdOne,
                          PdpParams::PrefetchMode::Bypass})
            s.factories.push_back(pdpWithPrefetchMode(mode));
    });
    EXPECT_GT(prefetches, 0u) << "the prefetch variant never prefetched";
}

TEST(LockstepSweepTest, MatchesIndependentRunsOnFourHierarchyThreads)
{
    // Four threads' accesses, all timed on the lane's one model.
    Rng rng(0x4e4d3);
    rosterMatchesOracle(rng, [](Scenario &s) {
        s.genThreads = 4;
        s.config.telemetry.enabled = true;
    });
}

TEST(LockstepSweepTest, ObservedGroupsMatchTheOracleAtEveryThreadCount)
{
    // Every observer and the prefetcher at once, on a 1-lane and a
    // 5-lane group, at thread counts below, at and above the lanes.
    Scenario five;
    five.bench = "482.sphinx3";
    five.seed = seedFor(five.bench);
    five.factories = {[] { return makePolicy("PDP-3"); },
                      [] { return makePolicy("DRRIP"); },
                      [] { return makePolicy("EELRU"); },
                      pdpWithPrefetchMode(PdpParams::PrefetchMode::Bypass),
                      [] { return makePolicy("SPDP-B:64"); }};
    five.config.accesses = 60'000;
    five.config.warmup = 20'000;
    five.config.telemetry.enabled = true;
    five.config.telemetry.traceEvents = true;
    five.config.telemetry.interval = 2048;
    five.config.auditEvery = 8;
    five.prefetch = true;
    Scenario one = five;
    one.factories.resize(1);

    const std::vector<SimResult> oracle = oracleRuns(five);
    for (unsigned threads : {1u, 3u, 5u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectSameResults(laneRuns(one, threads), {oracle.front()});
        expectSameResults(laneRuns(five, threads), oracle);
    }
}

TEST(LockstepSweepTest, RunSingleCoreIsTheOneLaneCase)
{
    // The caller's hierarchy is the lane: its prefetcher drives the
    // front end, and its LLC is what ran.
    SimConfig config = quickConfig();
    config.auditEvery = 16;
    auto gen = SpecSuite::make("482.sphinx3", seedFor("482.sphinx3"));
    Hierarchy hierarchy(config.hierarchy, makePolicy("PDP-3"));
    hierarchy.attachPrefetcher(std::make_unique<StreamPrefetcher>());
    const SimResult lane = runSingleCore(*gen, hierarchy, config);

    auto oracleGen = SpecSuite::make("482.sphinx3", seedFor("482.sphinx3"));
    expectSameResult(lane, oracleRun(*oracleGen, makePolicy("PDP-3"),
                                     config, /*prefetch=*/true));
    EXPECT_EQ(hierarchy.llc().stats().misses, lane.llcMisses);
    EXPECT_EQ(hierarchy.llc().stats().hits, lane.llcHits);
}

TEST(LockstepSweepTest, ThreadCountDoesNotChangeResults)
{
    std::vector<PolicyFactory> factories;
    for (uint32_t pd : {16u, 64u, 256u})
        factories.push_back([pd] { return makeSpdpB(pd); });
    const SimConfig config = quickConfig();

    auto genOne = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    const auto one = runSingleCoreLockstep(*genOne, config, factories, 1);
    auto genFour = SpecSuite::make("429.mcf", seedFor("429.mcf"));
    const auto four = runSingleCoreLockstep(*genFour, config, factories, 4);

    ASSERT_EQ(one.size(), four.size());
    for (size_t c = 0; c < one.size(); ++c)
        expectSameResult(one[c], four[c]);
}

TEST(LockstepSweepTest, Fig10RosterIsExactAtEveryThreadCount)
{
    // The fig10 roster (EELRU included) at lane-worker counts that do
    // and don't divide its 26 lanes, and at more threads than lanes.
    // Two warmup chunks plus four measured ones: the double-buffered
    // front end decodes ahead across the warmup/measured boundary.
    std::vector<PolicyFactory> factories;
    for (const std::string &policy : fig10PolicyNames())
        factories.push_back([policy] { return makePolicy(policy); });
    for (uint32_t pd : defaultPdGrid())
        factories.push_back([pd] { return makeSpdpB(pd); });
    ASSERT_EQ(factories.size(), 26u);
    SimConfig config;
    config.accesses = 100'000;
    config.warmup = 40'000;

    std::vector<SimResult> plain;
    for (const PolicyFactory &factory : factories) {
        auto gen = SpecSuite::make("482.sphinx3", seedFor("482.sphinx3"));
        plain.push_back(oracleRun(*gen, factory(), config));
    }
    for (unsigned threads : {1u, 2u, 3u, 4u, 5u, 32u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto gen = SpecSuite::make("482.sphinx3", seedFor("482.sphinx3"));
        const std::vector<SimResult> lockstep =
            runSingleCoreLockstep(*gen, config, factories, threads);
        ASSERT_EQ(lockstep.size(), plain.size());
        for (size_t c = 0; c < plain.size(); ++c) {
            SCOPED_TRACE(plain[c].policy);
            expectSameResult(lockstep[c], plain[c]);
        }
    }
}

/** LRU that throws on its Nth fill: a lane failing mid-stream. */
class ThrowingLru : public LruPolicy
{
  public:
    void
    onInsert(const AccessContext &ctx, int way) override
    {
        if (++fills_ == 50'000)
            throw std::runtime_error("injected lane failure");
        LruPolicy::onInsert(ctx, way);
    }

  private:
    uint64_t fills_ = 0;
};

TEST(LockstepSweepTest, LaneFailureSurfacesOnTheCaller)
{
    // The exception crosses from whichever lane worker ran the failing
    // lane to the caller, at any thread count, and the workers wind
    // down cleanly.
    std::vector<PolicyFactory> factories(
        6, [] { return makePolicy("LRU"); });
    factories.insert(factories.begin() + 3,
                     [] { return std::make_unique<ThrowingLru>(); });
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        auto gen = SpecSuite::make("429.mcf", seedFor("429.mcf"));
        try {
            runSingleCoreLockstep(*gen, quickConfig(), factories, threads);
            ADD_FAILURE() << "lane failure was swallowed";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "injected lane failure");
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-core: runMultiCore is the one-lane case timed per thread.

/** A shared-LLC policy on a workload of `cores` threads. */
struct MultiCoreCase
{
    std::string policy;
    unsigned cores;
};

void
PrintTo(const MultiCoreCase &c, std::ostream *os)
{
    *os << c.policy << " on " << c.cores << " cores";
}

class MultiCoreLaneTest : public ::testing::TestWithParam<MultiCoreCase>
{};

TEST_P(MultiCoreLaneTest, MatchesThePerAccessLoop)
{
    // Long enough to cross UCP's and PIPP's first repartition (1M LLC
    // accesses) and the first PD recompute; a duplicated benchmark
    // exercises the per-instance address spaces.
    const MultiCoreCase &c = GetParam();
    WorkloadSpec workload = randomWorkloads(1, c.cores, 0x5eed)[0];
    workload.benchmarks.back() = workload.benchmarks.front();
    MultiCoreConfig base;
    base.cores = c.cores;
    base.accessesPerThread = 1'000'000 / c.cores;
    base.warmupPerThread = 200'000 / c.cores;

    const auto check = [&](const std::string &mode,
                           const MultiCoreConfig &config) {
        SCOPED_TRACE(mode);
        const MultiCoreResult oracle =
            oracleMultiCore(workload, c.policy, config);
        expectSameMultiCore(runMultiCore(workload, c.policy, config),
                            oracle);
        if (config.telemetry.enabled) {
            EXPECT_GT(oracle.telemetry->epochs.size(), 100u);
        }
        if (config.auditEvery > 0) {
            EXPECT_GT(oracle.auditsRun, 0u);
        }
    };
    check("plain", base);
    MultiCoreConfig traced = base;
    traced.telemetry.enabled = true;
    traced.telemetry.traceEvents = true;
    // Epoch edges fall mid-round.
    traced.telemetry.interval = 7919;
    check("telemetry + trace", traced);
    MultiCoreConfig audited = base;
    audited.auditEvery = 7;
    check("audit", audited);
}

INSTANTIATE_TEST_SUITE_P(
    SharedPolicies, MultiCoreLaneTest,
    ::testing::ValuesIn([] {
        std::vector<MultiCoreCase> cases;
        for (const char *policy :
             {"LRU", "DIP", "TA-DRRIP", "UCP", "PIPP", "PDP-2", "PDP-3"})
            for (unsigned cores : {2u, 4u})
                cases.push_back({policy, cores});
        return cases;
    }()),
    [](const ::testing::TestParamInfo<MultiCoreCase> &info) {
        std::string name = info.param.policy;
        std::replace(name.begin(), name.end(), '-', '_');
        return name + "_" + std::to_string(info.param.cores) + "cores";
    });

// ---------------------------------------------------------------------------
// Runner fan-out: Job::runMany.

TEST(ThreadPoolExecutorMany, FlattensGroupsInInputOrder)
{
    std::vector<Job> jobs;
    Job before;
    before.key = "a/before";
    before.seed = seedFor(before.key);
    before.run = [](const JobContext &) { return JobOutcome{}; };
    jobs.push_back(std::move(before));

    Job group;
    group.key = "b/group";
    group.seed = seedFor(group.key);
    group.runMany = [](const JobContext &) {
        std::vector<KeyedOutcome> outcomes(3);
        for (int c = 0; c < 3; ++c) {
            outcomes[c].key = "b/cell" + std::to_string(c);
            outcomes[c].outcome.metrics["cell"] = c;
        }
        return outcomes;
    };
    jobs.push_back(std::move(group));

    Job after;
    after.key = "c/after";
    after.seed = seedFor(after.key);
    after.run = [](const JobContext &) { return JobOutcome{}; };
    jobs.push_back(std::move(after));

    const auto records = ThreadPoolExecutor().run(jobs);
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].key, "a/before");
    EXPECT_EQ(records[1].key, "b/cell0");
    EXPECT_EQ(records[2].key, "b/cell1");
    EXPECT_EQ(records[3].key, "b/cell2");
    EXPECT_EQ(records[4].key, "c/after");
    for (const JobRecord &record : records)
        EXPECT_EQ(record.status, JobStatus::Ok);
    // Expanded records inherit the group's seed.
    EXPECT_EQ(records[1].seed, seedFor("b/group"));
    EXPECT_EQ(records[1].outcome.metrics.at("cell"), 0.0);
    EXPECT_EQ(records[3].outcome.metrics.at("cell"), 2.0);
}

TEST(ThreadPoolExecutorMany, ThrowingGroupBecomesOneFailedRecord)
{
    Job job;
    job.key = "boom";
    job.seed = seedFor(job.key);
    job.runMany = [](const JobContext &) -> std::vector<KeyedOutcome> {
        throw std::runtime_error("injected group failure");
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].key, "boom");
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    EXPECT_NE(records[0].error.find("injected group failure"),
              std::string::npos);
}

TEST(ThreadPoolExecutorMany, SettingBothCallablesIsAFailure)
{
    Job job;
    job.key = "both";
    job.run = [](const JobContext &) { return JobOutcome{}; };
    job.runMany = [](const JobContext &) {
        return std::vector<KeyedOutcome>(1);
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
}

TEST(ThreadPoolExecutorMany, EmptyGroupIsAFailure)
{
    Job job;
    job.key = "empty";
    job.runMany = [](const JobContext &) {
        return std::vector<KeyedOutcome>();
    };
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
}

// ---------------------------------------------------------------------------
// Runner: wide jobs run alone on the whole thread budget.

TEST(ThreadPoolExecutorWide, WideJobsRunAloneInInputOrder)
{
    // Every job sleeps while counted as active, so any job alongside a
    // wide one would be seen; the plain runs show the count does see
    // concurrency.
    std::atomic<int> active{0}, plainPeak{0}, wideCrowded{0};
    const auto makeJob = [&](std::string key, bool wide, bool fail) {
        Job job;
        job.key = std::move(key);
        job.seed = seedFor(job.key);
        job.wide = wide;
        job.run = [&, wide, fail](const JobContext &ctx) {
            const int now = ++active;
            int peak = plainPeak.load();
            while (!wide && now > peak &&
                   !plainPeak.compare_exchange_weak(peak, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            if (wide && (now != 1 || active.load() != 1))
                ++wideCrowded;
            --active;
            if (fail)
                throw std::runtime_error("injected failure");
            JobOutcome outcome;
            outcome.metrics["threads"] = ctx.threads;
            return outcome;
        };
        return job;
    };
    std::vector<Job> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(makeJob("p" + std::to_string(i), false, false));
    jobs.push_back(makeJob("w4", true, true));
    jobs.push_back(makeJob("p5", false, true));
    jobs.push_back(makeJob("p6", false, false));
    jobs.push_back(makeJob("w7", true, false));
    jobs.push_back(makeJob("w8", true, false));
    for (int i = 9; i < 13; ++i)
        jobs.push_back(makeJob("p" + std::to_string(i), false, false));

    ExecutorOptions options;
    options.workers = 4;
    const auto records = ThreadPoolExecutor(options).run(jobs);

    EXPECT_EQ(wideCrowded.load(), 0);
    EXPECT_GE(plainPeak.load(), 2);
    ASSERT_EQ(records.size(), jobs.size());
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const double plainThreads = std::max(1u, hw / 4);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].key);
        EXPECT_EQ(records[i].key, jobs[i].key);
        const bool failed = jobs[i].key == "w4" || jobs[i].key == "p5";
        EXPECT_EQ(records[i].status,
                  failed ? JobStatus::Failed : JobStatus::Ok);
        if (!failed) {
            EXPECT_EQ(records[i].outcome.metrics.at("threads"),
                      jobs[i].wide ? 4 * plainThreads : plainThreads);
        }
    }
}

// ---------------------------------------------------------------------------
// Suite-level byte-identity: the sweep suites' wide lockstep groups dump
// the same documents as one singleCoreJob per cell.

namespace
{

using Cell = std::pair<std::string, PolicyFactory>;

std::string
runDump(const std::string &suiteName, const std::vector<Job> &jobs)
{
    ResultsSink sink(suiteName);
    ExecutorOptions eopts;
    eopts.workers = 2;
    eopts.onComplete = [&sink](const JobRecord &r) { sink.add(r); };
    ThreadPoolExecutor(eopts).run(jobs);
    return sink.toJson(/*includeVolatile=*/false).dump(2);
}

/** The suite's own jobs for one benchmark, which must be one wide
 *  lockstep group. */
std::string
groupDump(const std::string &suiteName, const std::string &prefix)
{
    const Suite *suite = findSuite(suiteName);
    EXPECT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.02;
    options.filter = prefix;
    std::vector<Job> jobs = suite->buildJobs(options);
    std::erase_if(jobs, [&](const Job &job) {
        return job.key.find(prefix) == std::string::npos;
    });
    EXPECT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs.at(0).key, prefix + "lockstep");
    EXPECT_TRUE(jobs.at(0).wide);
    return runDump(suiteName, jobs);
}

/** The independent oracle: one singleCoreJob per cell. */
std::string
independentDump(const std::string &suiteName, const std::string &bench,
                const std::vector<Cell> &cells, const SimConfig &config)
{
    std::vector<Job> jobs;
    for (const Cell &cell : cells)
        jobs.push_back(singleCoreJob(cell.first, bench, cell.second, config));
    return runDump(suiteName, jobs);
}

} // namespace

TEST(SuiteLockstepTest, Fig4LockstepDumpMatchesIndependent)
{
    const std::string prefix = "fig4/429.mcf/";
    std::vector<Cell> cells;
    for (unsigned denom : {4u, 8u, 16u, 32u, 64u, 128u})
        cells.emplace_back(prefix + "DRRIP-eps:" + std::to_string(denom),
                           [denom] { return makeDrrip(1.0 / denom); });
    for (uint32_t pd : defaultPdGrid()) {
        cells.emplace_back(prefix + "SPDP-NB:" + std::to_string(pd),
                           [pd] { return makeSpdpNb(pd); });
        cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                           [pd] { return makeSpdpB(pd); });
    }
    SimConfig config;
    config.accesses = 2'000'000;
    config.warmup = 800'000;

    const std::string a = independentDump("fig4_static_pdp", "429.mcf",
                                          cells, config.scaled(0.02));
    const std::string b = groupDump("fig4_static_pdp", prefix);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"llc_misses\""), std::string::npos);
}

TEST(SuiteLockstepTest, Fig10LockstepDumpMatchesIndependent)
{
    // One benchmark's full fig10 grid: DIP, DRRIP, EELRU, SDP, the
    // dynamic PDPs and the 19-point SPDP-B sweep — 26 cells.
    const std::string prefix = "fig10/429.mcf/";
    std::vector<Cell> cells;
    for (const std::string &policy : fig10PolicyNames())
        cells.emplace_back(prefix + policy,
                           [policy] { return makePolicy(policy); });
    for (uint32_t pd : defaultPdGrid())
        cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                           [pd] { return makeSpdpB(pd); });
    SimConfig config;
    config.accesses = 3'000'000;
    config.warmup = 1'000'000;

    const std::string a = independentDump("fig10_single_core", "429.mcf",
                                          cells, config.scaled(0.02));
    const std::string b = groupDump("fig10_single_core", prefix);
    EXPECT_EQ(a, b);
    const auto doc = Json::parse(a);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("jobs")->size(), 26u);
}

TEST(SuiteLockstepTest, GroupingRuleKeepsObserversInLanes)
{
    const Suite *suite = findSuite("fig10_single_core");
    ASSERT_NE(suite, nullptr);
    const size_t benches = SpecSuite::singleCoreNames().size();
    // The jobs runSuite would run: buildJobs, then the key filter.
    const auto jobsFor = [&](const SuiteOptions &options) {
        std::vector<Job> jobs = suite->buildJobs(options);
        std::erase_if(jobs, [&](const Job &job) {
            return job.key.find(options.filter) == std::string::npos;
        });
        return jobs;
    };
    const auto allWideGroups = [&](const std::vector<Job> &jobs) {
        for (const Job &job : jobs) {
            EXPECT_TRUE(job.wide) << job.key;
            EXPECT_TRUE(job.runMany != nullptr) << job.key;
            EXPECT_NE(job.key.find("/lockstep"), std::string::npos);
        }
    };

    // Untraced and traced alike: one wide group per benchmark.
    SuiteOptions options;
    options.scale = 0.01;
    SuiteOptions traced = options;
    traced.telemetry = true;
    traced.trace = true;
    for (const SuiteOptions &o : {options, traced}) {
        const std::vector<Job> jobs = jobsFor(o);
        EXPECT_EQ(jobs.size(), benches);
        allWideGroups(jobs);
    }

    // A filter naming a group keeps the whole group.
    SuiteOptions groupFilter = options;
    groupFilter.filter = "429.mcf/lockstep";
    const std::vector<Job> group = jobsFor(groupFilter);
    ASSERT_EQ(group.size(), 1u);
    EXPECT_EQ(group[0].key, "fig10/429.mcf/lockstep");

    // A filter naming cells runs a group of exactly those cells, with
    // the cells' own keys and the benchmark's seed.
    SuiteOptions cellFilter = traced;
    cellFilter.filter = "429.mcf/PDP-";
    const std::vector<Job> cells = jobsFor(cellFilter);
    ASSERT_EQ(cells.size(), 1u);
    allWideGroups(cells);
    EXPECT_EQ(cells[0].seed, seedFor("429.mcf"));
    const auto records = ThreadPoolExecutor().run(cells);
    ASSERT_EQ(records.size(), 3u);
    for (const JobRecord &record : records) {
        EXPECT_EQ(record.status, JobStatus::Ok) << record.error;
        EXPECT_EQ(record.seed, seedFor("429.mcf"));
        ASSERT_TRUE(record.outcome.single.has_value());
        EXPECT_TRUE(record.outcome.single->telemetry != nullptr);
    }
    EXPECT_EQ(records[0].key, "fig10/429.mcf/PDP-2");
    EXPECT_EQ(records[1].key, "fig10/429.mcf/PDP-3");
    EXPECT_EQ(records[2].key, "fig10/429.mcf/PDP-8");

    // Hardware counters count only the thread that opened them: each
    // cell is its own plain one-lane job under its own key.
    SuiteOptions counted = options;
    counted.perfCounters = true;
    const std::vector<Job> perCell = jobsFor(counted);
    EXPECT_EQ(perCell.size(), 26 * benches);
    EXPECT_TRUE(std::none_of(perCell.begin(), perCell.end(),
                             [](const Job &job) {
                                 return job.wide || job.runMany;
                             }));
    EXPECT_EQ(perCell.front().key, "fig10/" +
                                       SpecSuite::singleCoreNames().front() +
                                       "/DIP");
}

TEST(SuiteLockstepTest, ServiceGridIsOneWideGroupUnlessObserved)
{
    const Suite *suite = findSuite("service");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.02;
    options.serviceTenants = 8;
    options.serviceChurn = 2;
    const std::vector<Job> grouped = suite->buildJobs(options);
    ASSERT_EQ(grouped.size(), 1u);
    EXPECT_EQ(grouped[0].key, "service/t8c2/lockstep");
    EXPECT_TRUE(grouped[0].wide);

    // Observers, an injected fault, or a filter naming policies rather
    // than the group: one one-lane job per policy.
    SuiteOptions traced = options;
    traced.trace = true;
    SuiteOptions telemetry = options;
    telemetry.telemetry = true;
    SuiteOptions faulted = options;
    faulted.serviceFaultAt = 1000;
    SuiteOptions policyFilter = options;
    policyFilter.filter = "/LRU";
    for (const SuiteOptions &o : {traced, telemetry, faulted, policyFilter}) {
        const std::vector<Job> jobs = suite->buildJobs(o);
        EXPECT_EQ(jobs.size(), 5u);
        EXPECT_TRUE(std::none_of(jobs.begin(), jobs.end(),
                                 [](const Job &job) { return job.wide; }));
    }

    // Both groupings dump the same records, byte for byte.
    const std::string a = runDump("service", suite->buildJobs(policyFilter));
    const std::string b = runDump("service", grouped);
    EXPECT_EQ(a, b);
    const auto doc = Json::parse(a);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("jobs")->size(), 5u);
}
