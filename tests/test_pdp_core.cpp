/**
 * @file
 * Unit tests for the PDP core: RD sampler accuracy, counter-array
 * semantics, the hit-rate model, protection enforcement of the policy,
 * bypass behaviour, n_c quantization and dynamic recomputation.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "cache/cache.h"
#include "policies/basic.h"
#include "core/hit_rate_model.h"
#include "core/pdp_policy.h"
#include "core/rd_profiler.h"
#include "core/rd_sampler.h"
#include "core/rdd.h"
#include "util/rng.h"

using namespace pdp;

namespace
{

CacheConfig
tinyConfig(uint32_t sets, uint32_t ways, bool bypass = true)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    cfg.ways = ways;
    cfg.allowBypass = bypass;
    return cfg;
}

AccessContext
at(uint64_t line)
{
    AccessContext ctx;
    ctx.lineAddr = line;
    return ctx;
}

} // namespace

TEST(RdSampler, MeasuresExactDistancesAtFullRate)
{
    RdSamplerParams params = RdSamplerParams::full(1);
    RdSampler sampler(params, 1);
    // Access pattern: X, a, b, c, X -> RD(X) = 4.
    sampler.observe(0, 0x100);
    sampler.observe(0, 0x200);
    sampler.observe(0, 0x300);
    sampler.observe(0, 0x400);
    const RdObservation obs = sampler.observe(0, 0x100);
    ASSERT_TRUE(obs.rd.has_value());
    EXPECT_EQ(*obs.rd, 4u);
}

TEST(RdSampler, InvalidatesEntryAfterHit)
{
    RdSampler sampler(RdSamplerParams::full(1), 1);
    sampler.observe(0, 0x100);
    sampler.observe(0, 0x100); // hit, invalidates
    const RdObservation again = sampler.observe(0, 0x100);
    // The second reuse re-measures only from the new insertion.
    ASSERT_TRUE(again.rd.has_value());
    EXPECT_EQ(*again.rd, 1u);
}

TEST(RdSampler, OnlySampledSetsObserve)
{
    RdSampler sampler(RdSamplerParams{}, 2048); // 32 of 2048 sets
    EXPECT_TRUE(sampler.isSampled(0));
    EXPECT_TRUE(sampler.isSampled(64));
    EXPECT_FALSE(sampler.isSampled(1));
    const RdObservation obs = sampler.observe(1, 0x123);
    EXPECT_FALSE(obs.rd.has_value());
    EXPECT_FALSE(obs.inserted);
}

TEST(RdSampler, DitheredInsertionRateApproximatesOneOverM)
{
    RdSampler sampler(RdSamplerParams{}, 2048);
    uint64_t inserted = 0, total = 0;
    Rng rng(1);
    for (uint64_t i = 0; i < 200000; ++i) {
        const RdObservation obs = sampler.observe(0, rng.next());
        ++total;
        inserted += obs.inserted;
    }
    EXPECT_NEAR(static_cast<double>(inserted) / total, 1.0 / 8, 0.01);
}

TEST(RdSampler, AgreesWithExactProfilerOnRandomStream)
{
    // Statistical agreement: sampler RDD ~ exact RDD for a mixed stream.
    RdSampler sampler(RdSamplerParams::full(1, 256), 1);
    RdProfiler profiler(1, 256);
    Rng rng(7);
    uint64_t checked = 0;
    std::unordered_map<uint64_t, uint64_t> last;
    uint64_t count = 0;
    for (uint64_t i = 0; i < 50000; ++i) {
        const uint64_t line = rng.below(64);
        ++count;
        const auto it = last.find(line);
        const uint64_t true_rd = it == last.end() ? 0 : count - it->second;
        last[line] = count;
        const RdObservation obs = sampler.observe(0, line);
        if (obs.rd && true_rd > 0 && true_rd <= 256) {
            EXPECT_EQ(*obs.rd, true_rd);
            ++checked;
        }
    }
    EXPECT_GT(checked, 10000u);
}

TEST(RdCounterArray, BucketsByStep)
{
    RdCounterArray rdd(256, 4);
    EXPECT_EQ(rdd.numBuckets(), 64u);
    rdd.recordHit(1);
    rdd.recordHit(4);
    rdd.recordHit(5);
    EXPECT_EQ(rdd.bucket(0), 2u);
    EXPECT_EQ(rdd.bucket(1), 1u);
}

TEST(RdCounterArray, IgnoresOutOfRange)
{
    RdCounterArray rdd(256, 4);
    rdd.recordHit(0);
    rdd.recordHit(257);
    EXPECT_EQ(rdd.hitSum(), 0u);
}

TEST(RdCounterArray, FreezesOnSaturation)
{
    RdCounterArray rdd(16, 1, /*counter_bits=*/4);
    for (int i = 0; i < 100; ++i)
        rdd.recordHit(3);
    EXPECT_TRUE(rdd.frozen());
    const uint32_t frozen_value = rdd.bucket(2);
    rdd.recordHit(5);
    rdd.recordAccess();
    EXPECT_EQ(rdd.bucket(4), 0u);      // frozen: no further updates
    EXPECT_EQ(rdd.bucket(2), frozen_value);
    EXPECT_EQ(rdd.total(), 0u);
    rdd.decay();
    EXPECT_FALSE(rdd.frozen());
}

TEST(HitRateModel, PrefersTheDominantPeak)
{
    RdCounterArray rdd(256, 4);
    for (int i = 0; i < 1000; ++i)
        rdd.recordHit(70 + (i % 5));
    for (int i = 0; i < 1500; ++i)
        rdd.recordAccess();
    HitRateModel model(16);
    const uint32_t pd = model.bestPd(rdd);
    EXPECT_GE(pd, 72u);
    EXPECT_LE(pd, 96u);
}

TEST(HitRateModel, EmptyRddYieldsZero)
{
    RdCounterArray rdd(256, 4);
    HitRateModel model(16);
    EXPECT_EQ(model.bestPd(rdd), 0u);
    EXPECT_DOUBLE_EQ(model.evaluate(rdd, 64), 0.0);
}

TEST(HitRateModel, CurveIsMonotoneInHits)
{
    // All mass at small RD: E must peak early and decline after.
    RdCounterArray rdd(256, 4);
    for (int i = 0; i < 500; ++i)
        rdd.recordHit(8);
    for (int i = 0; i < 1000; ++i)
        rdd.recordAccess();
    HitRateModel model(16);
    const auto curve = model.curve(rdd);
    const uint32_t pd = model.bestPd(rdd);
    EXPECT_LE(pd, 24u);
    // The bucket containing the mass dominates the far tail.
    EXPECT_GT(curve[1].e, curve.back().e);
}

TEST(HitRateModel, PeaksFindsBothModes)
{
    RdCounterArray rdd(256, 4);
    for (int i = 0; i < 800; ++i)
        rdd.recordHit(30 + (i % 3));
    for (int i = 0; i < 500; ++i)
        rdd.recordHit(150 + (i % 3));
    for (int i = 0; i < 2000; ++i)
        rdd.recordAccess();
    HitRateModel model(16);
    const auto peaks = model.peaks(rdd, 3);
    ASSERT_GE(peaks.size(), 2u);
    bool near = false, far = false;
    for (const EPoint &p : peaks) {
        near |= p.dp >= 28 && p.dp <= 48;
        far |= p.dp >= 144 && p.dp <= 176;
    }
    EXPECT_TRUE(near);
    EXPECT_TRUE(far);
}

TEST(HitRateModel, HitsAndOccupancyPrefixes)
{
    RdCounterArray rdd(256, 4);
    rdd.recordHit(4);
    rdd.recordHit(8);
    rdd.recordAccess();
    rdd.recordAccess();
    rdd.recordAccess();
    EXPECT_EQ(HitRateModel::hits(rdd, 4), 1u);
    EXPECT_EQ(HitRateModel::hits(rdd, 8), 2u);
    HitRateModel model(16);
    // occupancy(8) = 1*4 + 1*8 + (3-2)*(8+16) = 36
    EXPECT_EQ(model.occupancy(rdd, 8), 36u);
}

TEST(PdpPolicy, ProtectedLinesSurviveUntilPd)
{
    // 1-set, 2-way cache, static PD 6 with bypass.
    Cache cache(tinyConfig(1, 2), makeSpdpB(6));
    cache.access(at(1));
    cache.access(at(2));
    // Both protected: the next misses must bypass, not evict.
    const AccessOutcome out = cache.access(at(3));
    EXPECT_TRUE(out.bypassed);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
}

TEST(PdpPolicy, UnprotectedLineIsVictim)
{
    Cache cache(tinyConfig(1, 2), makeSpdpB(3));
    cache.access(at(1)); // RPD 3 -> 2 after self-decrement
    cache.access(at(2)); // line1 RPD 1
    cache.access(at(3)); // line1 RPD 0 at selection? bypassed or evict
    cache.access(at(4)); // by now line 1 must be evictable
    EXPECT_FALSE(cache.contains(1));
}

TEST(PdpPolicy, PromotionReprotects)
{
    Cache cache(tinyConfig(1, 2), makeSpdpB(4));
    cache.access(at(1));
    cache.access(at(2));
    cache.access(at(1)); // promote: RPD back to 4
    cache.access(at(3));
    cache.access(at(4));
    // Line 2 expires before line 1.
    EXPECT_TRUE(cache.contains(1));
}

TEST(PdpPolicy, LoopAtProtectedDistanceHits)
{
    // Cyclic loop of 6 lines over a 1-set 2-way cache with PD >= 6:
    // protected lines survive a full lap; about 2/6 of accesses hit.
    Cache cache(tinyConfig(1, 2), makeSpdpB(8));
    uint64_t hits_before = 0;
    for (int lap = 0; lap < 200; ++lap)
        for (uint64_t line = 0; line < 6; ++line)
            cache.access(at(line));
    hits_before = cache.stats().hits;
    EXPECT_GT(hits_before, 300u); // ~2 hits per 6-access lap
    // LRU reference: zero hits on the same pattern.
    Cache lru_cache(tinyConfig(1, 2, false),
                    std::make_unique<LruPolicy>());
    for (int lap = 0; lap < 200; ++lap)
        for (uint64_t line = 0; line < 6; ++line)
            lru_cache.access(at(line));
    EXPECT_EQ(lru_cache.stats().hits, 0u);
}

TEST(PdpPolicy, NonBypassEvictsYoungestInserted)
{
    // Inclusive mode (Fig. 3c): with all lines protected, the inserted
    // (non-reused) line with the highest RPD is the victim.
    Cache cache(tinyConfig(1, 2, /*bypass=*/false), makeSpdpNb(100));
    cache.access(at(1));
    cache.access(at(1)); // line 1 reused
    cache.access(at(2)); // line 2 inserted (younger)
    const AccessOutcome out = cache.access(at(3));
    EXPECT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedAddr, 2u);
}

TEST(PdpPolicy, NonBypassFallsBackToYoungestReused)
{
    Cache cache(tinyConfig(1, 2, false), makeSpdpNb(100));
    cache.access(at(1));
    cache.access(at(2));
    cache.access(at(1));
    cache.access(at(2)); // both reused; 2 promoted last (youngest)
    const AccessOutcome out = cache.access(at(3));
    EXPECT_EQ(out.evictedAddr, 2u);
}

TEST(PdpPolicy, QuantizedProtectionGuaranteesAtLeastPd)
{
    // n_c = 2 with d_max 256 -> S_d = 64: a PD of 70 must still protect
    // for at least 70 accesses (2+1 quanta).
    PdpParams params;
    params.dynamic = false;
    params.staticPd = 70;
    params.ncBits = 2;
    params.bypass = true;
    Cache cache(tinyConfig(1, 2), std::make_unique<PdpPolicy>(params));
    cache.access(at(1));
    for (uint64_t i = 0; i < 69; ++i)
        cache.access(at(100 + i));
    EXPECT_TRUE(cache.contains(1));
}

TEST(PdpPolicy, InsertWithPdOneVariantEvictsQuickly)
{
    PdpParams params;
    params.dynamic = false;
    params.staticPd = 100;
    params.insertWithPdOne = true;
    Cache cache(tinyConfig(1, 4), std::make_unique<PdpPolicy>(params));
    cache.access(at(1));
    cache.access(at(2));
    cache.access(at(3));
    cache.access(at(4));
    // All inserted with PD=1: next miss finds an unprotected victim.
    const AccessOutcome out = cache.access(at(5));
    EXPECT_FALSE(out.bypassed);
    EXPECT_TRUE(out.evictedValid);
}

TEST(PdpPolicy, DynamicRecomputeTracksStream)
{
    PdpParams params;
    params.recomputeInterval = 2000;
    params.firstRecompute = 2000;
    params.samplerWarmup = 0;
    params.minSamples = 50;
    params.minHits = 10;
    params.sampler = RdSamplerParams::full(64);
    auto policy = std::make_unique<PdpPolicy>(params);
    const PdpPolicy *pdp = policy.get();
    Cache cache(tinyConfig(64, 16), std::move(policy));
    // 64-set cache; loop with per-set RD of 20.
    const uint64_t lines = 20 * 64;
    for (uint64_t i = 0; i < 60000; ++i)
        cache.access(at(i % lines));
    ASSERT_FALSE(pdp->pdHistory().empty());
    EXPECT_GE(pdp->pd(), 20u);
    EXPECT_LE(pdp->pd(), 48u);
}

TEST(PdpPolicy, NamesFollowThePaper)
{
    EXPECT_EQ(makeSpdpB(64)->name(), "SPDP-B");
    EXPECT_EQ(makeSpdpNb(64)->name(), "SPDP-NB");
    EXPECT_EQ(makeDynamicPdp(3)->name(), "PDP-3");
    EXPECT_EQ(makeDynamicPdp(8, false)->name(), "PDP-8-NB");
}

TEST(RdProfiler, ExactDistances)
{
    RdProfiler profiler(1, 16);
    profiler.observe(0, 1);
    profiler.observe(0, 2);
    profiler.observe(0, 1); // RD 2
    EXPECT_EQ(profiler.rdd().at(1), 1u);
    EXPECT_EQ(profiler.accesses(), 3u);
}

TEST(RdProfiler, OverflowBucketBeyondDmax)
{
    RdProfiler profiler(1, 4);
    profiler.observe(0, 42);
    for (uint64_t i = 0; i < 10; ++i)
        profiler.observe(0, 100 + i);
    profiler.observe(0, 42); // RD 11 > 4
    EXPECT_EQ(profiler.rdd().overflow(), 1u);
}

namespace
{

/** Frozen copy of the node-map RdProfiler that the flat per-set tables
 *  replaced: the differential oracle for rdd, pairRdd, overflow and
 *  accesses, prune path included. */
class MapRdProfiler
{
  public:
    MapRdProfiler(uint32_t num_sets, uint32_t d_max)
        : dMax_(d_max), sets_(num_sets), histogram_(d_max),
          pairHistogram_(d_max)
    {}

    void
    observe(uint32_t set, uint64_t line_addr)
    {
        SetState &state = sets_[set];
        ++state.counter;
        ++accesses_;
        auto it = state.lastAccess.find(line_addr);
        if (it != state.lastAccess.end()) {
            const uint64_t rd = state.counter - it->second.lastAccess;
            if (rd >= 1 && rd <= dMax_) {
                histogram_.add(static_cast<size_t>(rd - 1));
                const uint32_t prev = it->second.prevDist;
                if (prev >= 1 && prev <= dMax_) {
                    const uint64_t mx = rd > prev ? rd : prev;
                    pairHistogram_.add(static_cast<size_t>(mx - 1));
                }
                it->second.prevDist = static_cast<uint32_t>(rd);
            } else {
                histogram_.add(dMax_);
                it->second.prevDist = dMax_ + 1;
            }
            it->second.lastAccess = state.counter;
        } else {
            state.lastAccess.emplace(line_addr, LineState{state.counter, 0});
            if (state.lastAccess.size() < 4ull * dMax_)
                return;
            // pdplint: allow(unordered-iter) each entry is kept or
            // dropped on its own predicate; nothing is emitted.
            for (auto e = state.lastAccess.begin();
                 e != state.lastAccess.end();) {
                if (state.counter - e->second.lastAccess > dMax_)
                    e = state.lastAccess.erase(e);
                else
                    ++e;
            }
        }
    }

    void
    clearCounts()
    {
        histogram_.reset();
        pairHistogram_.reset();
        accesses_ = 0;
    }

    uint32_t dMax_;
    struct LineState
    {
        uint64_t lastAccess = 0;
        uint32_t prevDist = 0;
    };
    struct SetState
    {
        std::unordered_map<uint64_t, LineState> lastAccess;
        uint64_t counter = 0;
    };
    std::vector<SetState> sets_;
    Histogram histogram_;
    Histogram pairHistogram_;
    uint64_t accesses_ = 0;
};

} // namespace

TEST(RdProfiler, FlatTablesMatchTheNodeMapProfiler)
{
    Rng rng(0x5eed);
    unsigned mismatches = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const uint32_t sets = 1u << rng.below(4);
        const uint32_t dMax = 1 + static_cast<uint32_t>(rng.below(
            trial % 2 ? 8 : 300)); // tiny reaches make prune fire often
        const uint64_t lines = 1 + rng.below(trial % 3 ? 64 : 5000);
        RdProfiler flat(sets, dMax);
        MapRdProfiler frozen(sets, dMax);
        const int accesses = 2000 + static_cast<int>(rng.below(8000));
        for (int i = 0; i < accesses; ++i) {
            // A hot window, a streaming tail, and the extreme addresses
            // (UINT64_MAX is a valid key in the flat table).
            uint64_t line;
            const uint64_t kind = rng.below(16);
            if (kind == 0)
                line = ~uint64_t{0} - rng.below(2);
            else if (kind < 4)
                line = 1'000'000 + static_cast<uint64_t>(i);
            else
                line = rng.below(lines) * 0x10001;
            const uint32_t set = static_cast<uint32_t>(line & (sets - 1));
            flat.observe(set, line);
            frozen.observe(set, line);
            if (i == accesses / 3) {
                flat.clearCounts();
                frozen.clearCounts();
            }
        }
        bool same = flat.accesses() == frozen.accesses_ &&
            flat.rdd().overflow() == frozen.histogram_.overflow() &&
            flat.pairRdd().overflow() == frozen.pairHistogram_.overflow();
        for (uint32_t d = 0; d < dMax; ++d)
            same = same && flat.rdd().at(d) == frozen.histogram_.at(d) &&
                flat.pairRdd().at(d) == frozen.pairHistogram_.at(d);
        if (!same) {
            ++mismatches;
            ADD_FAILURE() << "trial " << trial << ": sets " << sets
                          << " d_max " << dMax << " lines " << lines;
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(RdProfiler, PeakDetection)
{
    RdProfiler profiler(1, 64);
    // Cycle 10 lines: every reuse at distance 10.
    for (int i = 0; i < 200; ++i)
        profiler.observe(0, i % 10);
    EXPECT_EQ(profiler.peakRd(), 10u);
    EXPECT_GT(profiler.coveredFraction(), 0.9);
}
