/**
 * @file
 * Multi-config lockstep sweeps: N policy configs over ONE trace decode.
 *
 * The figure suites are sweep-shaped — the same benchmark simulated
 * under dozens of policy configs (the Fig. 4/Fig. 10 static-PD grids),
 * every config re-decoding the identical trace and re-walking the
 * identical L2.  Since the L2 is policy-independent (it is always plain
 * LRU and nothing the LLC decides feeds back into it), the lockstep
 * driver decodes and L2-filters once per chunk and replays the captured
 * LLC op stream against N per-config LLC caches side by side, amortizing
 * the front-end across the whole sweep.  Each config's LLC sees the full
 * op stream in order, so this is *exact for every policy*: the returned
 * SimResults are byte-identical to N independent sequential runs, which
 * the byte-identity tests pin down.
 *
 * On top of the amortization, the per-chunk config walks are
 * independent (each config's Cache, policy and timing model are
 * private), so they fan out across `threads` workers that live for the
 * whole call and claim configs one at a time.  The calling thread is
 * the front end: it decodes chunk k + 1 while the workers replay chunk
 * k, then joins the replay.  Chunks still reach every config strictly
 * in order, and the L2 never sees LLC state, so the fan-out cannot
 * change a result.
 */

#ifndef PDP_SIM_LOCKSTEP_SWEEP_H
#define PDP_SIM_LOCKSTEP_SWEEP_H

#include <functional>
#include <memory>
#include <vector>

#include "policies/replacement_policy.h"
#include "sim/single_core_sim.h"
#include "trace/generator.h"

namespace pdp
{

/**
 * Simulate every policy in `makePolicies` over one decode of `gen`,
 * returning one SimResult per factory, in input order.  `threads` is
 * the whole thread budget, the calling thread included (0 or 1 = inline
 * on the caller, one chunk buffer).
 * Telemetry/audit/prefetcher configs are rejected (they observe global
 * order and belong to the sequential driver).
 */
std::vector<SimResult> runSingleCoreLockstep(
    AccessGenerator &gen, const SimConfig &config,
    const std::vector<
        std::function<std::unique_ptr<ReplacementPolicy>()>> &makePolicies,
    unsigned threads = 1);

} // namespace pdp

#endif // PDP_SIM_LOCKSTEP_SWEEP_H
