#include "policies/eelru.h"

#include <algorithm>

#include "cache/cache.h"
#include "check/check.h"
#include "check/invariant_auditor.h"

namespace pdp
{

EelruPolicy::EelruPolicy() : EelruPolicy(Params{}) {}

EelruPolicy::EelruPolicy(Params params) : params_(std::move(params))
{
    PDP_CHECK(params_.maxDepth >= 2, "EELRU depth ", params_.maxDepth);
}

void
EelruPolicy::attach(Cache &cache, uint32_t num_sets, uint32_t num_ways)
{
    ReplacementPolicy::attach(cache, num_sets, num_ways);
    queues_.assign(num_sets, {});
    for (auto &queue : queues_)
        queue.reserve(params_.maxDepth);
    hitsAtPos_.assign(params_.maxDepth + 1, 0);
    prefix_.assign(hitsAtPos_.size() + 1, 0);
}

void
EelruPolicy::touch(uint32_t set, uint64_t addr, bool count_hit)
{
    PDP_DCHECK(addr >> 63 == 0, "EELRU: line address ", addr,
               " does not fit a queue entry");
    auto &queue = queues_[set];
    for (size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].addr != addr)
            continue;
        if (count_hit)
            ++hitsAtPos_[i + 1];
        const auto at = queue.begin() + static_cast<ptrdiff_t>(i);
        std::rotate(queue.begin(), at, at + 1);
        return;
    }
    // Not tracked: insert fresh at MRU.  A full queue drops its shadow
    // tail instead of growing, so it stays within the depth attach()
    // reserved.
    Entry fresh;
    fresh.addr = addr;
    fresh.inCache = false;
    if (queue.size() < params_.maxDepth)
        queue.push_back(fresh);
    else
        queue.back() = fresh;
    std::rotate(queue.begin(), queue.end() - 1, queue.end());
}

void
EelruPolicy::maybeRetune()
{
    if (++accessCount_ % params_.epochAccesses != 0)
        return;

    // Prefix sums of the recency-hit histogram, in the buffer attach()
    // sized once: an epoch retune must not allocate on the access path.
    std::fill(prefix_.begin(), prefix_.end(), 0);
    for (size_t p = 1; p < hitsAtPos_.size(); ++p)
        prefix_[p + 1] = prefix_[p] + hitsAtPos_[p];
    auto hits_upto = [&](uint32_t pos) {
        pos = std::min<uint32_t>(pos, params_.maxDepth);
        return prefix_[pos + 1];
    };

    // Expected hits under plain LRU: everything within the cache depth.
    const double score_lru = static_cast<double>(hits_upto(numWays_));

    double best_score = score_lru;
    uint32_t best_e = 0, best_l = 0;
    for (uint32_t e : params_.earlyPoints) {
        if (e >= numWays_)
            continue;
        for (uint32_t l : params_.latePoints) {
            if (l <= numWays_ || l > params_.maxDepth)
                continue;
            // Early eviction keeps positions [1, e) intact and retains a
            // (W - e) / (l - e) fraction of the [e, l] region.
            const double early_hits = static_cast<double>(hits_upto(e - 1));
            const double region = static_cast<double>(hits_upto(l) -
                                                      hits_upto(e - 1));
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

    // Exponential decay so phases can shift the decision.
    for (auto &h : hitsAtPos_)
        h /= 2;
}

void
EelruPolicy::onHit(const AccessContext &ctx, int way)
{
    (void)way;
    touch(ctx.set, ctx.lineAddr, !ctx.isWriteback);
    // The line is demonstrably cached; resynchronize the flag in case its
    // queue entry had been trimmed off the shadow tail and re-created.
    queues_[ctx.set].front().inCache = true;
    maybeRetune();
}

int
EelruPolicy::selectVictim(const AccessContext &ctx)
{
    auto &queue = queues_[ctx.set];

    int victim_way = -1;
    if (early_ > 0) {
        // Early eviction: the cached line at recency position >= e that is
        // closest to e.
        uint32_t pos = 0;
        for (const Entry &entry : queue) {
            ++pos;
            if (pos < early_ || !entry.inCache)
                continue;
            victim_way = [&] {
                for (uint32_t way = 0; way < numWays_; ++way)
                    if (cache_->isValid(ctx.set, way) &&
                        cache_->lineAddr(ctx.set, way) == entry.addr)
                        return static_cast<int>(way);
                return -1;
            }();
            if (victim_way >= 0)
                break;
        }
    }
    if (victim_way < 0) {
        // Plain LRU among cached lines: deepest queue entry that is cached.
        for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
            if (!it->inCache)
                continue;
            for (uint32_t way = 0; way < numWays_; ++way) {
                if (cache_->isValid(ctx.set, way) &&
                    cache_->lineAddr(ctx.set, way) == it->addr) {
                    victim_way = static_cast<int>(way);
                    break;
                }
            }
            if (victim_way >= 0)
                break;
        }
    }
    if (victim_way < 0)
        victim_way = 0; // queue lost track (shadow trimmed); fall back

    // Mark the victim's queue entry as no longer cached.
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
EelruPolicy::onInsert(const AccessContext &ctx, int way)
{
    (void)way;
    touch(ctx.set, ctx.lineAddr, !ctx.isWriteback);
    queues_[ctx.set].front().inCache = true;
    maybeRetune();
}

void
EelruPolicy::auditGlobal(InvariantReporter &reporter) const
{
    ReplacementPolicy::auditGlobal(reporter);
    reporter.check((early_ == 0) == (late_ == 0), "eelru.points",
                   "EELRU: eviction points half-set: e ", early_, " l ",
                   late_);
    if (early_ > 0) {
        // The early point lives inside the cache depth, the late point in
        // the shadow region; anything else makes the keep fraction in
        // maybeRetune() meaningless.
        reporter.check(early_ < numWays_ && late_ > numWays_ &&
                           late_ <= params_.maxDepth,
                       "eelru.points", "EELRU: e ", early_, " l ", late_,
                       " invalid for ", numWays_, " ways, depth ",
                       params_.maxDepth);
    }
    reporter.check(hitsAtPos_.empty() ||
                       hitsAtPos_.size() == params_.maxDepth + 1,
                   "eelru.histogram", "EELRU: histogram size ",
                   hitsAtPos_.size(), " != depth + 1 = ",
                   params_.maxDepth + 1);
}

void
EelruPolicy::auditSet(uint32_t set, InvariantReporter &reporter) const
{
    const auto &queue = queues_[set];
    reporter.check(queue.size() <= params_.maxDepth, "eelru.queue_depth",
                   "EELRU: set ", set, " queue depth ", queue.size(),
                   " > max ", params_.maxDepth);
    size_t resident = 0;
    for (const Entry &entry : queue)
        resident += entry.inCache ? 1 : 0;
    reporter.check(resident <= numWays_, "eelru.residency", "EELRU: set ",
                   set, " queue claims ", resident,
                   " cached lines in a ", numWays_, "-way set");
}

} // namespace pdp
