/**
 * @file
 * Unit tests for the baseline replacement policies: LRU/FIFO/Random
 * semantics, DIP insertion behaviour, the RRIP family, set dueling,
 * EELRU and SDP mechanics, and SHiP signature learning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "policies/dueling.h"
#include "policies/eelru.h"
#include "policies/rrip.h"
#include "policies/sdp.h"
#include "policies/ship.h"
#include "sim/policy_factory.h"
#include "util/rng.h"

using namespace pdp;

namespace
{

CacheConfig
tinyConfig(uint32_t sets, uint32_t ways, bool bypass = false)
{
    CacheConfig cfg;
    cfg.sizeBytes = static_cast<uint64_t>(sets) * ways * 64;
    cfg.ways = ways;
    cfg.allowBypass = bypass;
    return cfg;
}

AccessContext
at(uint64_t line, uint64_t pc = 0x400000)
{
    AccessContext ctx;
    ctx.lineAddr = line;
    ctx.pc = pc;
    return ctx;
}

/** Fill set 0 of a (sets=4) cache with `ways` distinct lines. */
void
fillSetZero(Cache &cache, uint32_t ways, uint64_t base = 0)
{
    for (uint32_t i = 0; i < ways; ++i)
        cache.access(at(base + i * 4));
}


/**
 * A frozen copy of EelruPolicy from before its queue entries were packed
 * into 8 bytes: 16-byte entries, and every touch an erase plus an
 * insert at the front.  The differential test holds the live policy to
 * it decision for decision.
 */
class VectorEelru : public ReplacementPolicy
{
  public:
    explicit VectorEelru(EelruPolicy::Params params)
        : params_(std::move(params))
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "EELRU-vector";
        return n;
    }

    void
    attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override
    {
        ReplacementPolicy::attach(cache, num_sets, num_ways);
        queues_.assign(num_sets, {});
        for (auto &queue : queues_)
            queue.reserve(params_.maxDepth);
        hitsAtPos_.assign(params_.maxDepth + 1, 0);
        prefix_.assign(hitsAtPos_.size() + 1, 0);
    }

    void
    onHit(const AccessContext &ctx, int) override
    {
        touch(ctx.set, ctx.lineAddr, !ctx.isWriteback);
        queues_[ctx.set].front().inCache = true;
        maybeRetune();
    }

    int
    selectVictim(const AccessContext &ctx) override
    {
        auto &queue = queues_[ctx.set];
        const auto wayOf = [&](uint64_t addr) {
            for (uint32_t way = 0; way < numWays_; ++way)
                if (cache_->isValid(ctx.set, way) &&
                    cache_->lineAddr(ctx.set, way) == addr)
                    return static_cast<int>(way);
            return -1;
        };
        int victim_way = -1;
        if (early_ > 0) {
            uint32_t pos = 0;
            for (const Entry &entry : queue) {
                ++pos;
                if (pos < early_ || !entry.inCache)
                    continue;
                victim_way = wayOf(entry.addr);
                if (victim_way >= 0)
                    break;
            }
        }
        if (victim_way < 0) {
            for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
                if (!it->inCache)
                    continue;
                victim_way = wayOf(it->addr);
                if (victim_way >= 0)
                    break;
            }
        }
        if (victim_way < 0)
            victim_way = 0;
        const uint64_t victim_addr = cache_->lineAddr(ctx.set, victim_way);
        for (Entry &entry : queue) {
            if (entry.addr == victim_addr) {
                entry.inCache = false;
                break;
            }
        }
        return victim_way;
    }

    void
    onInsert(const AccessContext &ctx, int) override
    {
        touch(ctx.set, ctx.lineAddr, !ctx.isWriteback);
        queues_[ctx.set].front().inCache = true;
        maybeRetune();
    }

    uint32_t earlyPoint() const { return early_; }
    uint32_t latePoint() const { return late_; }

  private:
    struct Entry
    {
        uint64_t addr;
        bool inCache;
    };

    void
    touch(uint32_t set, uint64_t addr, bool count_hit)
    {
        auto &queue = queues_[set];
        for (size_t i = 0; i < queue.size(); ++i) {
            if (queue[i].addr != addr)
                continue;
            if (count_hit)
                ++hitsAtPos_[i + 1];
            Entry entry = queue[i];
            queue.erase(queue.begin() + static_cast<ptrdiff_t>(i));
            queue.insert(queue.begin(), entry);
            return;
        }
        queue.insert(queue.begin(), Entry{addr, false});
        if (queue.size() > params_.maxDepth)
            queue.pop_back();
    }

    void
    maybeRetune()
    {
        if (++accessCount_ % params_.epochAccesses != 0)
            return;
        std::fill(prefix_.begin(), prefix_.end(), 0);
        for (size_t p = 1; p < hitsAtPos_.size(); ++p)
            prefix_[p + 1] = prefix_[p] + hitsAtPos_[p];
        auto hits_upto = [&](uint32_t pos) {
            pos = std::min<uint32_t>(pos, params_.maxDepth);
            return prefix_[pos + 1];
        };
        double best_score = static_cast<double>(hits_upto(numWays_));
        uint32_t best_e = 0, best_l = 0;
        for (uint32_t e : params_.earlyPoints) {
            if (e >= numWays_)
                continue;
            for (uint32_t l : params_.latePoints) {
                if (l <= numWays_ || l > params_.maxDepth)
                    continue;
                const double early_hits =
                    static_cast<double>(hits_upto(e - 1));
                const double region = static_cast<double>(
                    hits_upto(l) - hits_upto(e - 1));
                const double keep = static_cast<double>(numWays_ - e) /
                    static_cast<double>(l - e);
                const double score = early_hits + keep * region;
                if (score > best_score) {
                    best_score = score;
                    best_e = e;
                    best_l = l;
                }
            }
        }
        early_ = best_e;
        late_ = best_l;
        for (auto &h : hitsAtPos_)
            h /= 2;
    }

    EelruPolicy::Params params_;
    std::vector<std::vector<Entry>> queues_;
    std::vector<uint64_t> hitsAtPos_;
    std::vector<uint64_t> prefix_;
    uint64_t accessCount_ = 0;
    uint32_t early_ = 0;
    uint32_t late_ = 0;
};
} // namespace

TEST(Lru, CyclicThrashNeverHits)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<LruPolicy>());
    // 3 lines cycling through a 2-way set: classic LRU worst case.
    for (int lap = 0; lap < 5; ++lap)
        for (uint64_t line : {0u, 4u, 8u})
            cache.access(at(line));
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(Fifo, IgnoresHits)
{
    Cache cache(tinyConfig(4, 2), std::make_unique<FifoPolicy>());
    cache.access(at(0));
    cache.access(at(4));
    cache.access(at(0)); // hit; FIFO order unchanged, 0 still oldest
    const AccessOutcome out = cache.access(at(8));
    EXPECT_EQ(out.evictedAddr, 0u);
}

TEST(Random, EventuallyEvictsEveryWay)
{
    Cache cache(tinyConfig(4, 4), std::make_unique<RandomPolicy>());
    fillSetZero(cache, 4);
    std::set<uint64_t> evicted;
    for (uint64_t i = 0; i < 200; ++i) {
        const AccessOutcome out = cache.access(at(100 * 4 + i * 4));
        if (out.evictedValid)
            evicted.insert(out.evictedAddr);
    }
    // All four original lines must have been victims at some point.
    EXPECT_GE(evicted.size(), 4u);
}

TEST(Lip, InsertsAtLruPosition)
{
    Cache cache(tinyConfig(4, 2), makeLip());
    cache.access(at(0));
    cache.access(at(4));
    cache.access(at(0)); // promote 0
    // LIP: the newest insert (8) lands at LRU and is the next victim.
    cache.access(at(8));
    const AccessOutcome out = cache.access(at(12));
    EXPECT_EQ(out.evictedAddr, 8u);
}

TEST(Bip, MostInsertsAtLru)
{
    Cache cache(tinyConfig(4, 4, false), makeBip(1.0 / 32));
    // Thrash with a long cyclic pattern: BIP must retain some stable
    // subset and produce hits where LRU gets none.
    Cache lru(tinyConfig(4, 4, false), std::make_unique<LruPolicy>());
    for (int lap = 0; lap < 400; ++lap)
        for (uint64_t line = 0; line < 8; ++line) {
            cache.access(at(line * 4));
            lru.access(at(line * 4));
        }
    EXPECT_EQ(lru.stats().hits, 0u);
    EXPECT_GT(cache.stats().hits, 100u);
}

TEST(SetDueling, LeaderAssignmentsDisjoint)
{
    SetDueling duel(2048, 32, 10);
    int a = 0, b = 0;
    for (uint32_t set = 0; set < 2048; ++set) {
        const int type = duel.leaderType(set);
        a += type == 0;
        b += type == 1;
    }
    EXPECT_EQ(a, 32);
    EXPECT_EQ(b, 32);
}

TEST(SetDueling, PselMovesTowardWinner)
{
    SetDueling duel(2048, 32, 10);
    // Hammer misses on A leaders: policy B should win the followers.
    for (uint32_t i = 0; i < 1000; ++i)
        for (uint32_t set = 0; set < 2048; ++set)
            if (duel.leaderType(set) == 0)
                duel.recordMiss(set);
    EXPECT_TRUE(duel.setUsesB(5)); // follower
}

TEST(Rrip, HitPromotionProtects)
{
    Cache cache(tinyConfig(4, 2), makeSrrip());
    cache.access(at(0));
    cache.access(at(0)); // RRPV -> 0
    cache.access(at(4));
    // Line 4 (inserted long, RRPV 2) must be evicted before line 0.
    const AccessOutcome out = cache.access(at(8));
    EXPECT_EQ(out.evictedAddr, 4u);
}

TEST(Rrip, BrripRarelyInsertsLong)
{
    Cache cache(tinyConfig(4, 4, false), makeBrrip(1.0 / 32));
    Cache lru(tinyConfig(4, 4, false), std::make_unique<LruPolicy>());
    for (int lap = 0; lap < 400; ++lap)
        for (uint64_t line = 0; line < 8; ++line) {
            cache.access(at(line * 4));
            lru.access(at(line * 4));
        }
    // BRRIP is thrash-resistant where LRU is not.
    EXPECT_EQ(lru.stats().hits, 0u);
    EXPECT_GT(cache.stats().hits, 100u);
}

TEST(Eelru, BehavesLikeLruOnSmallWorkingSets)
{
    Cache cache(tinyConfig(4, 4), std::make_unique<EelruPolicy>());
    for (int lap = 0; lap < 50; ++lap)
        for (uint64_t line = 0; line < 3; ++line)
            cache.access(at(line * 4));
    // Working set of 3 fits in 4 ways: everything after warmup hits.
    EXPECT_GT(cache.stats().hitRate(), 0.9);
}

TEST(Eelru, TracksShadowDepthBeyondAssociativity)
{
    EelruPolicy::Params params;
    params.epochAccesses = 64;
    Cache cache(tinyConfig(1, 4),
                std::make_unique<EelruPolicy>(params));
    // 6-line cycle over a 4-way set: LRU gets zero; EELRU's early
    // eviction can keep a useful fraction.
    for (int lap = 0; lap < 500; ++lap)
        for (uint64_t line = 0; line < 6; ++line)
            cache.access(at(line));
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(Eelru, PackedQueueMatchesTheVectorQueueDecisionForDecision)
{
    // Random geometries and traces: recency-skewed reuse (hits at every
    // queue depth, shadow region included), fresh lines that overflow
    // full queues, and writebacks (which touch without counting).
    Rng rng(0xee1u);
    int earlyTrials = 0;
    for (int trial = 0; trial < 24; ++trial) {
        const uint32_t sets = 1u << rng.below(5);
        const uint32_t ways = 2u << rng.below(4);
        EelruPolicy::Params params;
        params.maxDepth = std::max<uint32_t>(
            ways + 2, static_cast<uint32_t>(16 + rng.below(241)));
        params.epochAccesses = 32u << rng.below(5);
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ": " << sets << " sets x "
                     << ways << " ways, depth " << params.maxDepth
                     << ", epoch " << params.epochAccesses);

        auto packed = std::make_unique<EelruPolicy>(params);
        auto vector = std::make_unique<VectorEelru>(params);
        const EelruPolicy &p = *packed;
        const VectorEelru &v = *vector;
        Cache live(tinyConfig(sets, ways), std::move(packed));
        Cache frozen(tinyConfig(sets, ways), std::move(vector));

        const uint64_t footprint =
            sets * (ways + rng.below(2 * params.maxDepth));
        std::vector<uint64_t> recent;
        uint64_t evictions = 0;
        bool early = false;
        for (int i = 0; i < 40'000; ++i) {
            uint64_t line;
            if (!recent.empty() && rng.chance(0.7)) {
                const uint64_t depth = std::clamp<uint64_t>(
                    rng.geometric(3.0 * ways), 1, recent.size());
                line = recent[recent.size() - depth];
            } else {
                line = rng.below(footprint);
            }
            recent.push_back(line);
            if (recent.size() > 4096)
                recent.erase(recent.begin(), recent.begin() + 2048);
            AccessContext ctx = at(line);
            ctx.isWriteback = rng.chance(0.1);
            ctx.isWrite = ctx.isWriteback || rng.chance(0.2);
            const AccessOutcome a = live.access(ctx);
            const AccessOutcome b = frozen.access(ctx);
            ASSERT_EQ(a.hit, b.hit) << "access " << i;
            ASSERT_EQ(a.evictedValid, b.evictedValid) << "access " << i;
            if (a.evictedValid) {
                ++evictions;
                ASSERT_EQ(a.way, b.way) << "access " << i;
                ASSERT_EQ(a.evictedAddr, b.evictedAddr) << "access " << i;
            }
            ASSERT_EQ(p.earlyPoint(), v.earlyPoint()) << "access " << i;
            ASSERT_EQ(p.latePoint(), v.latePoint()) << "access " << i;
            early = early || p.earlyPoint() > 0;
        }
        EXPECT_GT(evictions, 0u);
        earlyTrials += early ? 1 : 0;
    }
    // Early eviction (the queue-walking victim path) must be exercised.
    EXPECT_GT(earlyTrials, 0);
}

TEST(DeadBlockPredictor, LearnsDeadSignatures)
{
    DeadBlockPredictor predictor;
    for (int i = 0; i < 10; ++i)
        predictor.train(0xbeef, true);
    EXPECT_TRUE(predictor.predictDead(0xbeef));
    EXPECT_FALSE(predictor.predictDead(0x1234));
    for (int i = 0; i < 10; ++i)
        predictor.train(0xbeef, false);
    EXPECT_FALSE(predictor.predictDead(0xbeef));
}

TEST(Sdp, BypassesLearnedDeadPc)
{
    SdpPolicy::Params params;
    params.samplerSets = 1;
    Cache cache(tinyConfig(4, 2, /*bypass=*/true),
                std::make_unique<SdpPolicy>(params));
    // Stream never-reused lines from one PC through the sampled set 0.
    const uint64_t dead_pc = 0xdead00;
    for (uint64_t i = 0; i < 3000; ++i)
        cache.access(at(i * 4, dead_pc));
    EXPECT_GT(cache.stats().bypasses, 0u);
}

TEST(Ship, DistantInsertionForDeadSignatures)
{
    Cache cache(tinyConfig(4, 2, false), std::make_unique<ShipPolicy>());
    // Train one signature as never-reused.
    const uint64_t dead_pc = 0xd00d00;
    for (uint64_t i = 0; i < 2000; ++i)
        cache.access(at(i * 4, dead_pc));
    // A reused line from another PC must survive dead-signature inserts.
    cache.access(at(3, 0x700d));
    cache.access(at(3, 0x700d));
    for (uint64_t i = 0; i < 4; ++i)
        cache.access(at(20000 * 4 + 3 + i * 4, dead_pc));
    EXPECT_TRUE(cache.contains(3));
}

TEST(PolicyFactory, BuildsEveryStandardSpec)
{
    for (const char *spec :
         {"LRU", "FIFO", "Random", "LIP", "BIP", "DIP", "SRRIP", "BRRIP",
          "DRRIP", "EELRU", "SDP", "SHiP", "PDP-2", "PDP-3", "PDP-8",
          "PDP-8-NB", "PDP-1INS", "SPDP-B:72", "SPDP-NB:64"}) {
        auto policy = makePolicy(spec);
        ASSERT_NE(policy, nullptr) << spec;
        EXPECT_FALSE(policy->name().empty());
    }
    EXPECT_THROW(makePolicy("NotAPolicy"), std::invalid_argument);
}
