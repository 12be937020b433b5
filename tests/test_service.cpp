/**
 * @file
 * Tests for the multi-tenant cache-service mode (src/service/): scenario
 * scripting, open-loop determinism, invariant cleanliness through tenant
 * churn at maximum audit cadence, lifecycle/realloc event emission, and
 * per-tenant SLO metric plumbing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "cache/cache_stats.h"
#include "check/check.h"
#include "partition/tenant_aware.h"
#include "runner/results_sink.h"
#include "service/scenario.h"
#include "service/service_sim.h"
#include "service/slo_monitor.h"
#include "sim/multi_core_sim.h"
#include "trace/tenant_stream.h"
#include "util/stats.h"

using namespace pdp;

namespace
{

/** A seconds-long population: 3 initial tenants, one scripted swap. */
std::vector<TenantSpec>
smallTenants()
{
    std::vector<TenantSpec> tenants(4);
    tenants[0].name = "alpha";
    tenants[0].arrivalRate = 2.0;
    tenants[0].footprintLines = 1 << 10;
    tenants[1].name = "beta";
    tenants[1].arrivalRate = 1.0;
    tenants[1].footprintLines = 1 << 12;
    tenants[1].zipfAlpha = 0.6;
    tenants[1].leaveAt = 20'000;
    tenants[2].name = "gamma";
    tenants[2].arrivalRate = 4.0;
    tenants[2].footprintLines = 1 << 11;
    tenants[3].name = "delta";
    tenants[3].footprintLines = 1 << 10;
    tenants[3].joinAt = 20'000; // swaps into beta's slot
    return tenants;
}

ServiceConfig
smallConfig()
{
    ServiceConfig config;
    config.slots = 4;
    config.accesses = 60'000;
    config.warmup = 10'000;
    config.sloInterval = 4'000;
    return config;
}

} // namespace

TEST(ServiceScenario, LifetimePopulationAndChurnScript)
{
    ServiceScenarioParams params;
    params.tenants = 8;
    params.churn = 3;
    params.accesses = 400'000;
    const auto tenants = buildServiceScenario(params, 42);
    ASSERT_EQ(tenants.size(), 11u); // 8 initial + 3 churn joiners
    unsigned leavers = 0, lateJoiners = 0;
    for (const TenantSpec &t : tenants) {
        leavers += t.leaveAt > 0 ? 1 : 0;
        lateJoiners += t.joinAt > 0 ? 1 : 0;
        if (t.leaveAt > 0) {
            EXPECT_GT(t.leaveAt, t.joinAt);
        }
    }
    EXPECT_EQ(leavers, 3u);
    EXPECT_EQ(lateJoiners, 3u);
    // Identical (params, seed) => identical script.
    const auto again = buildServiceScenario(params, 42);
    for (size_t i = 0; i < tenants.size(); ++i) {
        EXPECT_EQ(tenants[i].name, again[i].name);
        EXPECT_EQ(tenants[i].footprintLines, again[i].footprintLines);
        EXPECT_EQ(tenants[i].joinAt, again[i].joinAt);
        EXPECT_EQ(tenants[i].leaveAt, again[i].leaveAt);
    }
}

TEST(ServiceScenario, RejectsChurnSwallowingThePopulation)
{
    ServiceScenarioParams params;
    params.tenants = 4;
    params.churn = 4;
    EXPECT_THROW(buildServiceScenario(params, 1), CheckFailure);
}

TEST(ServiceSim, DeterministicAcrossRepeatedRuns)
{
    const auto tenants = smallTenants();
    const ServiceConfig config = smallConfig();
    for (const char *policy : {"LRU", "UCP", "PDP-3"}) {
        const ServiceResult a = runService(tenants, policy, config, 7);
        const ServiceResult b = runService(tenants, policy, config, 7);
        // The serialized form covers every deterministic field at once.
        EXPECT_EQ(runner::toJson(a).dump(2), runner::toJson(b).dump(2))
            << policy;
    }
}

TEST(ServiceSim, ChurnIsAuditCleanAtMaxCadence)
{
    const auto tenants = smallTenants();
    ServiceConfig config = smallConfig();
    config.auditEvery = 1;
    config.auditFailFast = true; // throw at the offending access
    for (const char *policy : {"UCP", "PDP-2", "PDP-3"}) {
        const ServiceResult result = runService(tenants, policy, config, 7);
        EXPECT_TRUE(result.tenantAware) << policy;
        EXPECT_GT(result.auditsRun, 0u) << policy;
        EXPECT_EQ(result.auditViolations, 0u) << policy;
    }
}

TEST(ServiceSim, EmitsLifecycleAndReallocEvents)
{
    const auto tenants = smallTenants();
    ServiceConfig config = smallConfig();
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = true;
    const ServiceResult result = runService(tenants, "PDP-3", config, 7);
    ASSERT_NE(result.telemetry, nullptr);
    unsigned joins = 0, leaves = 0, reallocs = 0;
    for (const telemetry::TraceEvent &event : result.telemetry->events) {
        joins += event.type == "tenant_join" ? 1 : 0;
        leaves += event.type == "tenant_leave" ? 1 : 0;
        reallocs += event.type == "partition_realloc" ? 1 : 0;
    }
    // The scripted swap: one mid-run join, one leave, and at least one
    // partition_realloc per churn edge.
    EXPECT_EQ(joins, 1u);
    EXPECT_EQ(leaves, 1u);
    EXPECT_GE(reallocs, 2u);
    EXPECT_EQ(result.joins, 4u);
    EXPECT_EQ(result.leaves, 1u);
    EXPECT_GE(result.reallocs, result.joins + result.leaves);
}

TEST(ServiceSim, PerTenantSloMetricsArePopulated)
{
    auto tenants = smallTenants();
    tenants[0].slo.minHitRate = 0.01;
    tenants[0].slo.maxP99MissCycles = 256.0;
    const ServiceResult result =
        runService(tenants, "PDP-3", smallConfig(), 7);
    ASSERT_EQ(result.tenants.size(), 4u);
    for (const TenantOutcome &t : result.tenants) {
        EXPECT_GT(t.requests, 0u) << t.name;
        EXPECT_GE(t.hitRate, 0.0);
        EXPECT_LE(t.hitRate, 1.0);
        EXPECT_GE(t.meanQuota, 0.0);
        EXPECT_LE(t.meanQuota, 1.0);
        EXPECT_GE(t.occupancyDrift, 0.0);
        EXPECT_LE(t.occupancyDrift, 1.0);
    }
    // The swap pair shares a slot: beta leaves, delta takes its place.
    EXPECT_EQ(result.tenants[1].leftAt, 20'000u);
    EXPECT_EQ(result.tenants[3].joinedAt, 20'000u);
    EXPECT_EQ(result.tenants[1].slot, result.tenants[3].slot);
    // p99 is a log2 bucket upper edge: one less than a power of two
    // (or zero when the tenant never missed).
    for (const TenantOutcome &t : result.tenants) {
        const uint64_t p99 = static_cast<uint64_t>(t.p99MissCycles);
        EXPECT_EQ((p99 + 1) & p99, 0u) << t.name << " p99=" << p99;
    }
}

TEST(ServiceSim, BaselinePoliciesRunUnmanaged)
{
    const ServiceResult result =
        runService(smallTenants(), "LRU", smallConfig(), 7);
    EXPECT_FALSE(result.tenantAware);
    EXPECT_EQ(result.joins, 4u);
    EXPECT_EQ(result.leaves, 1u);
    // Quotas fall back to an equal share of the live tenants.
    for (const TenantOutcome &t : result.tenants)
        EXPECT_NEAR(t.meanQuota, 1.0 / 3.0, 0.05) << t.name;
}

// ---------------------------------------------------------------------
// The lockstep engine against a frozen copy of the per-policy loop.

namespace
{

/** The interval p99 the burn-rate monitor scores (frozen copy). */
double
oracleIntervalP99(const Log2Histogram &hist,
                  std::array<uint64_t, Log2Histogram::kBuckets> &base,
                  uint64_t &base_count)
{
    const uint64_t count = hist.count() - base_count;
    double p99 = 0.0;
    if (count > 0) {
        uint64_t rank = static_cast<uint64_t>(
            0.99 * static_cast<double>(count));
        if (static_cast<double>(rank) < 0.99 * static_cast<double>(count))
            ++rank;
        rank = std::max<uint64_t>(1, std::min(rank, count));
        uint64_t seen = 0;
        for (unsigned k = 0; k < Log2Histogram::kBuckets; ++k) {
            seen += hist.at(k) - base[k];
            if (seen >= rank) {
                p99 = static_cast<double>(Log2Histogram::upperEdge(k));
                break;
            }
        }
    }
    for (unsigned k = 0; k < Log2Histogram::kBuckets; ++k)
        base[k] = hist.at(k);
    base_count = hist.count();
    return p99;
}

/**
 * Frozen copy of the per-policy service loop the lockstep engine
 * replaced (one Hierarchy, one scheduler, one policy), without the
 * observers: the oracle every lane must match field for field.
 */
ServiceResult
oracleRunService(const std::vector<TenantSpec> &tenants,
                 const std::string &policy_spec, const ServiceConfig &config,
                 uint64_t seed)
{
    HierarchyConfig hcfg = config.hierarchy;
    hcfg.numThreads = config.slots;
    auto policy = makeSharedPolicy(policy_spec, config.slots);
    auto *ta = dynamic_cast<TenantAwarePartition *>(policy.get());
    Hierarchy hierarchy(hcfg, std::move(policy));
    Cache &llc = hierarchy.llc();
    const uint64_t totalLines =
        static_cast<uint64_t>(llc.numSets()) * llc.numWays();
    SloMonitor monitor({config.sloWindow, config.sloBudget}, config.slots,
                       nullptr);

    ServiceResult result;
    result.policy = policy_spec;
    result.tenantAware = ta != nullptr;
    result.tenants.resize(tenants.size());
    if (ta)
        ta->beginTenantMode();

    struct Event
    {
        uint64_t at;
        bool isJoin;
        unsigned spec;
    };
    std::vector<Event> lifecycle;
    for (unsigned i = 0; i < tenants.size(); ++i) {
        lifecycle.push_back({tenants[i].joinAt, true, i});
        if (tenants[i].leaveAt > 0)
            lifecycle.push_back({tenants[i].leaveAt, false, i});
    }
    std::sort(lifecycle.begin(), lifecycle.end(),
              [](const Event &a, const Event &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.isJoin != b.isJoin)
                      return !a.isJoin;
                  return a.spec < b.spec;
              });

    struct State
    {
        bool live = false;
        int slot = -1;
        std::unique_ptr<TenantStreamGenerator> gen;
        std::unique_ptr<PoissonProcess> clock;
        TimingModel timer;
        uint64_t baseAccesses = 0, baseHits = 0, baseMisses = 0;
        uint64_t requests = 0, joinedAt = 0;
        Accumulator quota, occupancy, drift;
        uint64_t sloBaseAccesses = 0, sloBaseHits = 0;
        std::array<uint64_t, Log2Histogram::kBuckets> sloLatBase{};
        uint64_t sloLatBaseCount = 0;
    };
    std::vector<State> state(tenants.size());
    std::vector<int> slotOwner(config.slots, -1);
    unsigned live = 0;
    uint64_t measured = 0;
    std::vector<double> lastQuotas;

    const auto currentQuotas = [&]() {
        if (ta)
            return ta->tenantQuotas();
        std::vector<double> q(config.slots, 0.0);
        if (live > 0)
            for (unsigned s = 0; s < config.slots; ++s)
                if (slotOwner[s] >= 0)
                    q[s] = 1.0 / live;
        return q;
    };
    const auto snapshotBase = [&](State &ts) {
        const CacheStats &stats = llc.stats();
        ts.baseAccesses = stats.threadAccesses[ts.slot];
        ts.baseHits = stats.threadHits[ts.slot];
        ts.baseMisses = stats.threadMisses[ts.slot];
        ts.sloBaseAccesses = ts.baseAccesses;
        ts.sloBaseHits = ts.baseHits;
        ts.sloLatBase.fill(0);
        ts.sloLatBaseCount = 0;
    };
    const auto doJoin = [&](unsigned spec) {
        State &ts = state[spec];
        int slot = -1;
        if (ta) {
            slot = ta->tenantJoin();
        } else {
            for (unsigned s = 0; s < config.slots; ++s)
                if (slotOwner[s] < 0) {
                    slot = static_cast<int>(s);
                    break;
                }
        }
        ts.live = true;
        ts.slot = slot;
        slotOwner[slot] = static_cast<int>(spec);
        ++live;
        const TenantSpec &t = tenants[spec];
        const uint64_t streamSeed =
            hashMix64(seed ^ (0x7e4a7c15u + 2u * spec));
        ts.gen = std::make_unique<TenantStreamGenerator>(
            t.name, streamSeed, t.footprintLines, t.zipfAlpha,
            (static_cast<uint64_t>(spec) + 1) << 32, t.meanGap,
            t.writeFrac);
        ts.gen->setThreadId(static_cast<uint8_t>(slot));
        ts.clock = std::make_unique<PoissonProcess>(
            hashMix64(streamSeed ^ 0xc10cc10cu), t.arrivalRate);
        ts.timer = TimingModel(config.timing);
        ts.requests = 0;
        ts.joinedAt = measured;
        snapshotBase(ts);
        monitor.attach(static_cast<unsigned>(slot), spec,
                       {t.slo.minHitRate, t.slo.maxP99MissCycles});
        ++result.joins;
        ++result.reallocs;
        lastQuotas = currentQuotas();
    };
    const auto finalizeTenant = [&](unsigned spec, uint64_t leftAt) {
        const State &ts = state[spec];
        const TenantSpec &t = tenants[spec];
        const CacheStats &stats = llc.stats();
        TenantOutcome &out = result.tenants[spec];
        out.name = t.name;
        out.slot = static_cast<unsigned>(ts.slot);
        out.joinedAt = ts.joinedAt;
        out.leftAt = leftAt;
        out.requests = ts.requests;
        out.llcAccesses = stats.threadAccesses[ts.slot] - ts.baseAccesses;
        out.llcHits = stats.threadHits[ts.slot] - ts.baseHits;
        out.llcMisses = stats.threadMisses[ts.slot] - ts.baseMisses;
        out.hitRate = out.llcAccesses
            ? static_cast<double>(out.llcHits) / out.llcAccesses
            : 0.0;
        out.ipc = ts.timer.ipc();
        out.p99MissCycles =
            static_cast<double>(ts.timer.missLatency().quantile(0.99));
        out.meanQuota = ts.quota.mean();
        out.meanOccupancy = ts.occupancy.mean();
        out.occupancyDrift = ts.drift.mean();
        out.hitRateSloMet = t.slo.minHitRate <= 0.0 ||
            out.hitRate >= t.slo.minHitRate;
        out.latencySloMet = t.slo.maxP99MissCycles <= 0.0 ||
            out.p99MissCycles <= t.slo.maxP99MissCycles;
        const SloBurnStats &burn =
            monitor.stats(static_cast<unsigned>(ts.slot));
        out.sloBurnEvents = burn.burnEvents;
        out.sloRecoveredEvents = burn.recoveredEvents;
        out.maxBurnRate = burn.maxBurnRate;
    };
    const auto doLeave = [&](unsigned spec) {
        State &ts = state[spec];
        finalizeTenant(spec, measured);
        monitor.detach(static_cast<unsigned>(ts.slot));
        if (ta)
            ta->tenantLeave(static_cast<unsigned>(ts.slot));
        slotOwner[ts.slot] = -1;
        ts.live = false;
        ts.gen.reset();
        ts.clock.reset();
        --live;
        ++result.leaves;
        ++result.reallocs;
        lastQuotas = currentQuotas();
    };
    const auto step = [&]() {
        int pick = -1;
        double earliest = 0.0;
        for (unsigned i = 0; i < tenants.size(); ++i) {
            if (!state[i].live)
                continue;
            const double when = state[i].clock->nextArrival();
            if (pick < 0 || when < earliest) {
                pick = static_cast<int>(i);
                earliest = when;
            }
        }
        State &ts = state[pick];
        const Access access = ts.gen->next();
        const HierarchyResult res = hierarchy.access(access);
        ts.timer.onAccess(access.instrGap, res.level);
        ++ts.requests;
        ts.clock->advance();
    };
    const uint64_t sloInterval = config.sloInterval > 0
        ? config.sloInterval
        : std::max<uint64_t>(16384, config.accesses / 64);
    const auto sampleSlo = [&]() {
        if (live == 0)
            return;
        const std::vector<double> quotas = currentQuotas();
        std::vector<uint64_t> owned(config.slots, 0);
        for (uint32_t set = 0; set < llc.numSets(); ++set)
            for (uint32_t way = 0; way < llc.numWays(); ++way)
                if (llc.isValid(set, way)) {
                    const unsigned t = llc.lineThread(set, way);
                    if (t < config.slots)
                        ++owned[t];
                }
        const CacheStats &stats = llc.stats();
        for (unsigned s = 0; s < config.slots; ++s) {
            if (slotOwner[s] < 0)
                continue;
            State &ts = state[slotOwner[s]];
            const double occ = static_cast<double>(owned[s]) /
                static_cast<double>(totalLines);
            const double q = quotas[s];
            ts.quota.add(q);
            ts.occupancy.add(occ);
            ts.drift.add(occ > q ? occ - q : q - occ);
            const uint64_t intervalAccesses =
                stats.threadAccesses[s] - ts.sloBaseAccesses;
            const uint64_t intervalHits =
                stats.threadHits[s] - ts.sloBaseHits;
            monitor.observe(
                s, measured, intervalAccesses,
                intervalAccesses ? static_cast<double>(intervalHits) /
                        static_cast<double>(intervalAccesses)
                                 : 0.0,
                oracleIntervalP99(ts.timer.missLatency(), ts.sloLatBase,
                                  ts.sloLatBaseCount));
            ts.sloBaseAccesses = stats.threadAccesses[s];
            ts.sloBaseHits = stats.threadHits[s];
        }
        if (quotas != lastQuotas) {
            ++result.reallocs;
            lastQuotas = quotas;
        }
    };

    size_t nextEvent = 0;
    while (nextEvent < lifecycle.size() && lifecycle[nextEvent].at == 0 &&
           lifecycle[nextEvent].isJoin)
        doJoin(lifecycle[nextEvent++].spec);
    for (uint64_t i = 0; i < config.warmup; ++i)
        step();
    hierarchy.resetStats();
    for (State &ts : state) {
        if (!ts.live)
            continue;
        ts.timer = TimingModel(config.timing);
        ts.requests = 0;
        snapshotBase(ts);
    }
    lastQuotas = currentQuotas();
    while (measured < config.accesses) {
        while (nextEvent < lifecycle.size() &&
               lifecycle[nextEvent].at <= measured) {
            const Event &ev = lifecycle[nextEvent++];
            if (ev.isJoin)
                doJoin(ev.spec);
            else
                doLeave(ev.spec);
        }
        if (live == 0)
            break;
        step();
        ++measured;
        if (measured % sloInterval == 0)
            sampleSlo();
    }
    for (unsigned i = 0; i < tenants.size(); ++i)
        if (state[i].live)
            finalizeTenant(i, measured);
    result.aggregateHitRate = llc.stats().hitRate();
    return result;
}

void
expectSameResult(const ServiceResult &got, const ServiceResult &want)
{
    EXPECT_EQ(got.policy, want.policy);
    EXPECT_EQ(got.tenantAware, want.tenantAware);
    EXPECT_EQ(got.joins, want.joins);
    EXPECT_EQ(got.leaves, want.leaves);
    EXPECT_EQ(got.reallocs, want.reallocs);
    EXPECT_EQ(got.aggregateHitRate, want.aggregateHitRate);
    EXPECT_EQ(got.spansSampled, want.spansSampled);
    EXPECT_EQ(got.auditsRun, want.auditsRun);
    EXPECT_EQ(got.auditViolations, want.auditViolations);
    ASSERT_EQ(got.tenants.size(), want.tenants.size());
    for (size_t i = 0; i < got.tenants.size(); ++i) {
        const TenantOutcome &g = got.tenants[i], &w = want.tenants[i];
        SCOPED_TRACE("tenant " + std::to_string(i) + " " + w.name);
        EXPECT_EQ(g.name, w.name);
        EXPECT_EQ(g.slot, w.slot);
        EXPECT_EQ(g.joinedAt, w.joinedAt);
        EXPECT_EQ(g.leftAt, w.leftAt);
        EXPECT_EQ(g.requests, w.requests);
        EXPECT_EQ(g.llcAccesses, w.llcAccesses);
        EXPECT_EQ(g.llcHits, w.llcHits);
        EXPECT_EQ(g.llcMisses, w.llcMisses);
        EXPECT_EQ(g.hitRate, w.hitRate);
        EXPECT_EQ(g.ipc, w.ipc);
        EXPECT_EQ(g.p99MissCycles, w.p99MissCycles);
        EXPECT_EQ(g.meanQuota, w.meanQuota);
        EXPECT_EQ(g.meanOccupancy, w.meanOccupancy);
        EXPECT_EQ(g.occupancyDrift, w.occupancyDrift);
        EXPECT_EQ(g.hitRateSloMet, w.hitRateSloMet);
        EXPECT_EQ(g.latencySloMet, w.latencySloMet);
        EXPECT_EQ(g.sloBurnEvents, w.sloBurnEvents);
        EXPECT_EQ(g.sloRecoveredEvents, w.sloRecoveredEvents);
        EXPECT_EQ(g.maxBurnRate, w.maxBurnRate);
    }
}

const std::vector<std::string> kLanePolicies = {"LRU", "TA-DRRIP", "UCP",
                                                "PDP-2", "PDP-3"};

/**
 * A churn script laid over the front end's chunk edges (chunks hold at
 * most kServiceChunkRequests = C requests and are cut at every SLO
 * sample, every lifecycle index and the warmup/measure edge):
 *  - warmup 1.2 C, not a multiple of C;
 *  - SLO samples every 2.5 C, so some fall inside what would otherwise
 *    be a full chunk;
 *  - a swap at exactly C (a full-chunk edge), a leave at 1.8 C
 *    (mid-chunk), a join on the 2.5 C SLO sample, a leave on the 5 C
 *    SLO sample, and a join and a leave at odd indices.
 */
std::vector<TenantSpec>
edgeTenants()
{
    constexpr uint64_t C = kServiceChunkRequests;
    std::vector<TenantSpec> tenants(6);
    const char *names[] = {"t0", "t1", "t2", "t3", "t4", "t5"};
    for (size_t i = 0; i < tenants.size(); ++i) {
        tenants[i].name = names[i];
        tenants[i].arrivalRate = 1.0 + static_cast<double>(i % 3);
        // 2Ki to 32Ki lines against a 4Ki-line L2: dirty L2 victims
        // write back into the LLC.
        tenants[i].footprintLines = uint64_t{1} << (11 + 2 * (i % 3));
        tenants[i].writeFrac = 0.3;
        tenants[i].zipfAlpha = 0.5 + 0.1 * static_cast<double>(i);
        tenants[i].slo.minHitRate = 0.3;
        tenants[i].slo.maxP99MissCycles = 64.0;
    }
    tenants[1].leaveAt = C;
    tenants[2].leaveAt = C * 18 / 10;
    tenants[3].joinAt = C;
    tenants[3].leaveAt = 5 * C;
    tenants[4].joinAt = C * 5 / 2;
    tenants[5].joinAt = 3 * C + 1;
    tenants[5].leaveAt = 6 * C - 7;
    return tenants;
}

ServiceConfig
edgeConfig()
{
    constexpr uint64_t C = kServiceChunkRequests;
    ServiceConfig config;
    config.slots = 4;
    config.warmup = C * 12 / 10;
    config.accesses = 7 * C;
    config.sloInterval = C * 5 / 2;
    return config;
}

} // namespace

TEST(ServiceLockstep, EveryLaneMatchesThePerPolicyLoopAtEveryThreadCount)
{
    const auto tenants = edgeTenants();
    const ServiceConfig config = edgeConfig();
    std::vector<ServiceResult> oracle;
    for (const std::string &policy : kLanePolicies)
        oracle.push_back(oracleRunService(tenants, policy, config, 11));
    // The script really exercises churn at every edge kind.
    EXPECT_EQ(oracle[0].joins, 6u);
    EXPECT_EQ(oracle[0].leaves, 4u);

    for (unsigned threads : {1u, 2u, 3u, 5u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const std::vector<ServiceResult> lanes =
            runServiceLockstep(tenants, kLanePolicies, config, 11, threads);
        ASSERT_EQ(lanes.size(), kLanePolicies.size());
        for (size_t p = 0; p < lanes.size(); ++p) {
            SCOPED_TRACE(kLanePolicies[p]);
            expectSameResult(lanes[p], oracle[p]);
        }
    }
    // runService is the one-lane case of the same engine.
    expectSameResult(runService(tenants, "PDP-3", config, 11), oracle[4]);
}

TEST(ServiceLockstep, DrainedPopulationEndsTheRunEarly)
{
    // Every tenant has left by 1.5 C; a tenant scripted to join later
    // never does, and the run stops at the drain like the old loop.
    constexpr uint64_t C = kServiceChunkRequests;
    std::vector<TenantSpec> tenants = smallTenants();
    tenants[0].leaveAt = C;
    tenants[1].leaveAt = C / 2;
    tenants[2].leaveAt = C + C / 2;
    tenants[3].joinAt = 2 * C;
    ServiceConfig config = smallConfig();
    config.warmup = 3000;
    config.accesses = 4 * C;
    const std::vector<ServiceResult> lanes =
        runServiceLockstep(tenants, kLanePolicies, config, 5, 3);
    for (size_t p = 0; p < lanes.size(); ++p) {
        SCOPED_TRACE(kLanePolicies[p]);
        expectSameResult(lanes[p],
                         oracleRunService(tenants, kLanePolicies[p], config,
                                          5));
        EXPECT_EQ(lanes[p].joins, 3u);
        EXPECT_EQ(lanes[p].tenants[3].requests, 0u);
    }

    // No measured requests at all: the lanes still leave warmup.
    config.accesses = 0;
    expectSameResult(runServiceLockstep(tenants, {"UCP"}, config, 5, 2)[0],
                     oracleRunService(tenants, "UCP", config, 5));
}

TEST(ServiceLockstep, LaneFailureSurfacesOnTheCaller)
{
    // The injected fault trips inside every lane's walk, on whichever
    // thread claimed it; the caller sees the CheckFailure and the lane
    // threads wind down cleanly.
    ServiceConfig config = smallConfig();
    config.faultAt = 30'000;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        try {
            runServiceLockstep(smallTenants(), kLanePolicies, config, 7,
                               threads);
            ADD_FAILURE() << "lane failure was swallowed";
        } catch (const CheckFailure &e) {
            EXPECT_NE(std::string(e.what()).find("injected service fault"),
                      std::string::npos);
        }
    }
}
