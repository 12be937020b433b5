/**
 * @file
 * EELRU — early eviction LRU (Smaragdakis et al., 1999), adapted from
 * page replacement to a set-associative LLC as in the paper's Sec. 5.
 *
 * Each set keeps a recency queue of line addresses that extends beyond
 * the associativity (a "shadow" region up to l_max = d_max), so hits at
 * stack positions past the cache size are observable.  Two global counter
 * arrays record hits per recency position; periodically the policy picks
 * the (e, l) early/late eviction points that maximize the expected hit
 * rate, or falls back to plain LRU.  When early eviction is active the
 * victim is the cached line at recency position >= e closest to e, which
 * protects the older (late-region) lines.
 */

#ifndef PDP_POLICIES_EELRU_H
#define PDP_POLICIES_EELRU_H

#include <cstdint>
#include <vector>

#include "check/contracts.h"
#include "policies/replacement_policy.h"

namespace pdp
{

/** EELRU replacement. */
class EelruPolicy : public ReplacementPolicy
{
  public:
    struct Params
    {
        /** Maximum tracked recency depth (compatible with d_max). */
        uint32_t maxDepth = 256;
        /** Candidate early eviction points. */
        std::vector<uint32_t> earlyPoints = {2, 4, 6, 8, 10, 12, 14};
        /** Candidate late eviction points. */
        std::vector<uint32_t> latePoints = {24, 32, 48, 64, 96, 128, 192, 256};
        /** Accesses between (e, l) re-selections. */
        uint64_t epochAccesses = 128 * 1024;
    };

    EelruPolicy();
    explicit EelruPolicy(Params params);

    const std::string &
    name() const override
    {
        static const std::string n = "EELRU";
        return n;
    }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;

    void auditGlobal(InvariantReporter &reporter) const override;
    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    /** Currently selected early point (0 = plain LRU mode). */
    uint32_t earlyPoint() const { return early_; }
    uint32_t latePoint() const { return late_; }

  private:
    /** One queue slot in 8 bytes: line addresses are byte addresses
     *  shifted right by the line size, so 63 bits hold any of them. */
    struct Entry
    {
        uint64_t addr : 63;
        uint64_t inCache : 1;
    };
    static_assert(sizeof(Entry) == 8, "EELRU queue entry is 8 bytes");

    /** Move `addr` to the queue front, recording its previous recency
     *  position in the global histogram.  Returns nothing; cache
     *  residency of the entry is preserved. */
    void touch(uint32_t set, uint64_t addr, bool count_hit);

    /** Runs on every access (early-outs between epochs), so it is held
     *  to the allocation-free hot-path contract. */
    PDP_HOT void maybeRetune();

    Params params_;
    /** Per-set recency queue, front = MRU. */
    std::vector<std::vector<Entry>> queues_;
    /** hitsAtPos_[p] = demand touches at recency position p (1-based). */
    std::vector<uint64_t> hitsAtPos_;
    /** Reused prefix-sum buffer of maybeRetune(), sized at attach() so
     *  the epoch retune never allocates on the access path. */
    std::vector<uint64_t> prefix_;
    uint64_t accessCount_ = 0;
    uint32_t early_ = 0; //!< 0 disables early eviction (plain LRU)
    uint32_t late_ = 0;
};

// EELRU's recency queues extend past the associativity (shadow depth
// up to d_max), so its per-set state is policy-owned and the lent
// scratch row stays untouched.
PDP_SCRATCH_LAYOUT(EelruPolicy, NoScratchState);

} // namespace pdp

#endif // PDP_POLICIES_EELRU_H
