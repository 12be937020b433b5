/**
 * @file
 * The single-core lane engine: N policy configs over ONE trace decode.
 *
 * The figure suites are sweep-shaped — the same benchmark simulated
 * under dozens of policy configs (the Fig. 4/Fig. 10 static-PD grids).
 * The private level (L2s and any prefetcher, cache/hierarchy.h) never
 * sees LLC state, so the engine decodes and walks it once per chunk and
 * replays the captured LLC op stream against N per-config LLCs side by
 * side.  Each LLC sees the full op stream in order, so this is *exact
 * for every policy*: the results are byte-identical to N per-access
 * runs.  Each lane carries the observers its config asks for (epoch
 * sampler, event trace, invariant auditor) and resolves prefetch fills
 * against its own LLC; runSingleCore is the one-lane, one-thread case.
 *
 * The per-chunk lane walks are independent, so they fan out across
 * `threads` workers that live for the whole call and claim lanes one at
 * a time, while the calling thread decodes chunk k + 1
 * (sim/lane_crew.h).  Chunks still reach every lane strictly in order,
 * so the fan-out cannot change a result.
 */

#ifndef PDP_SIM_LOCKSTEP_SWEEP_H
#define PDP_SIM_LOCKSTEP_SWEEP_H

#include <functional>
#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "policies/replacement_policy.h"
#include "sim/single_core_sim.h"
#include "trace/generator.h"

namespace pdp
{

/**
 * Simulate every policy in `makePolicies` over one decode of `gen`,
 * returning one SimResult per factory, in input order.  The private
 * level is built from config.hierarchy, with no prefetcher.  `threads`
 * is the whole thread budget, the calling thread included (0 or 1 =
 * inline on the caller, one chunk buffer).
 */
std::vector<SimResult> runSingleCoreLockstep(
    AccessGenerator &gen, const SimConfig &config,
    const std::vector<
        std::function<std::unique_ptr<ReplacementPolicy>()>> &makePolicies,
    unsigned threads = 1);

/**
 * The engine itself: walk `gen` through `front` (and any prefetcher
 * attached to it) once, and replay the LLC ops on each of the distinct
 * caches in `llcs`, one lane each, returning one SimResult per cache in
 * input order.  A cache keeps the policy and observer its owner
 * attached; the config's auditor and epoch sampler are added per lane.
 */
std::vector<SimResult> runSingleCoreLockstep(
    AccessGenerator &gen, PrivateLevel &front,
    const std::vector<Cache *> &llcs, const SimConfig &config,
    unsigned threads = 1);

} // namespace pdp

#endif // PDP_SIM_LOCKSTEP_SWEEP_H
