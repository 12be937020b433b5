/**
 * @file
 * The simulated memory hierarchy: per-thread private L2 caches (LRU,
 * inclusive of nothing — plain allocate-on-miss) above a non-inclusive
 * LLC running the policy under study, as in the paper's Table 1 setup
 * (the L1 filter is folded into the trace generators).
 *
 * Non-inclusive semantics: every L2 miss is a demand access to the LLC;
 * the fetched line fills the L2 always, and fills the LLC unless the LLC
 * policy bypasses it.  Dirty L2 victims write back to the LLC (allocating
 * there on a writeback miss unless bypassed); dirty LLC victims write
 * back to memory.
 *
 * The private level (L2s plus an optional stream prefetcher) never sees
 * LLC state, so it turns accesses into LLC ops without an LLC.
 * Hierarchy applies them at once; the lane engines (sim/lockstep_sweep.h,
 * service/service_sim.h) replay them against one LLC per policy.
 */

#ifndef PDP_CACHE_HIERARCHY_H
#define PDP_CACHE_HIERARCHY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "policies/basic.h"
#include "prefetch/stream_prefetcher.h"
#include "trace/access.h"

namespace pdp
{

/** Where an access was served from. */
enum class HitLevel { L2, Llc, Memory };

/** Outcome of one hierarchy access. */
struct HierarchyResult
{
    HitLevel level = HitLevel::Memory;
};

/** Hierarchy configuration. */
struct HierarchyConfig
{
    CacheConfig l2 = CacheConfig::paperL2();
    CacheConfig llc = CacheConfig::paperLlc();
    unsigned numThreads = 1;
};

/** One LLC op of the private level's output, in hierarchy order: an
 *  access's opening op (its demand op, or an L2Hit marker), its dirty
 *  L2 victim's writeback, then per prefetch candidate the fill and its
 *  L2 victim's writeback.  Every access opens exactly one op. */
struct LlcOp
{
    enum Kind : uint8_t
    {
        Demand,    //!< an L2 miss; opens its access
        L2Hit,     //!< no LLC access; opens an access the L2 served
        Writeback, //!< a dirty L2 victim
        Prefetch,  //!< a fill, only if this LLC lacks the line
    };

    uint64_t lineAddr = 0;
    uint64_t pc = 0;
    /** Instruction gap of the access an opening op opens. */
    uint32_t gap = 0;
    uint8_t threadId = 0;
    bool isWrite = false;
    Kind kind = Demand;

    bool opensAccess() const { return kind <= L2Hit; }

    AccessContext
    context(uint32_t set) const
    {
        AccessContext ctx;
        ctx.lineAddr = lineAddr;
        ctx.pc = pc;
        ctx.set = set;
        ctx.threadId = threadId;
        ctx.isWrite = isWrite;
        ctx.isWriteback = kind == Writeback;
        ctx.isPrefetch = kind == Prefetch;
        return ctx;
    }
};

/** Apply a writeback or prefetch op to an LLC (an L2Hit is a no-op). */
inline void
applyNonDemand(Cache &llc, const LlcOp &op)
{
    if (op.kind == LlcOp::Writeback ||
        (op.kind == LlcOp::Prefetch && !llc.contains(op.lineAddr)))
        llc.access(op.context(llc.setIndex(op.lineAddr)));
}

/** The policy-independent half of the hierarchy: one private LRU L2 per
 *  thread and an optional stream prefetcher. */
class PrivateLevel
{
  public:
    PrivateLevel(const CacheConfig &l2, unsigned threads);

    /** Attach a stream prefetcher in front of the LLC (Sec. 6.5). */
    void
    attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher)
    {
        prefetcher_ = std::move(prefetcher);
    }

    /** Run one access through its thread's L2 and the prefetcher,
     *  calling emit(const LlcOp &) per LLC op.  The first op opens the
     *  access: its demand op on an L2 miss, else an L2Hit marker. */
    template <typename Emit>
    void
    walk(const Access &access, Emit &&emit)
    {
        Cache &l2 = *l2s_[access.threadId < l2s_.size() ? access.threadId
                                                         : 0];
        AccessContext ctx;
        ctx.lineAddr = access.lineAddr;
        ctx.pc = access.pc;
        ctx.set = l2.setIndex(access.lineAddr);
        ctx.threadId = access.threadId;
        ctx.isWrite = access.isWrite;
        const AccessOutcome out = l2.access(ctx);
        emit(LlcOp{access.lineAddr, access.pc, access.instrGap,
                   access.threadId, access.isWrite,
                   out.hit ? LlcOp::L2Hit : LlcOp::Demand});
        emitWriteback(out, emit);
        if (prefetcher_)
            prefetch(access, l2, !out.hit, emit);
    }

  private:
    template <typename Emit>
    static void
    emitWriteback(const AccessOutcome &l2_out, Emit &emit)
    {
        if (l2_out.evictedValid && l2_out.evictedDirty)
            emit(LlcOp{l2_out.evictedAddr, 0, 0, l2_out.evictedThread,
                       true, LlcOp::Writeback});
    }

    /** The prefetcher trains on the L2 input stream (so detected streams
     *  keep prefetching once their lines start hitting in the L2) and
     *  fills both levels.  The LLC fill goes through the policy, which
     *  is where the Sec. 6.5 prefetch-aware PDP variants act: prefetched
     *  lines can be inserted protected, inserted with PD = 1, or bypass
     *  the LLC entirely — in every case the L2 copy preserves the
     *  prefetch benefit, and the variants only differ in LLC pollution. */
    template <typename Emit>
    void
    prefetch(const Access &access, Cache &l2, bool l2_miss, Emit &emit)
    {
        for (uint64_t addr :
             prefetcher_->onDemand(access.lineAddr, l2_miss)) {
            if (l2.contains(addr))
                continue;
            emit(LlcOp{addr, access.pc, 0, access.threadId, false,
                       LlcOp::Prefetch});
            AccessContext pf;
            pf.lineAddr = addr;
            pf.pc = access.pc;
            pf.set = l2.setIndex(addr);
            pf.threadId = access.threadId;
            pf.isPrefetch = true;
            emitWriteback(l2.access(pf), emit);
        }
    }

    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<StreamPrefetcher> prefetcher_;
};

/** The two-level simulated hierarchy. */
class Hierarchy
{
  public:
    /**
     * @param config geometry (llc.allowBypass should be true unless an
     *               inclusive LLC is being studied)
     * @param llc_policy replacement policy of the LLC under study
     */
    Hierarchy(const HierarchyConfig &config,
              std::unique_ptr<ReplacementPolicy> llc_policy);

    /** Run one demand access through the hierarchy. */
    HierarchyResult access(const Access &access);

    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }
    PrivateLevel &privateLevel() { return private_; }

    /** Attach a stream prefetcher in front of the LLC (Sec. 6.5). */
    void
    attachPrefetcher(std::unique_ptr<StreamPrefetcher> prefetcher)
    {
        private_.attachPrefetcher(std::move(prefetcher));
    }

    void resetStats() { llc_->resetStats(); }

  private:
    PrivateLevel private_;
    std::unique_ptr<Cache> llc_;
};

} // namespace pdp

#endif // PDP_CACHE_HIERARCHY_H
