#include "cache/hierarchy.h"

#include "check/check.h"

namespace pdp
{

PrivateLevel::PrivateLevel(const CacheConfig &l2, unsigned threads)
{
    PDP_CHECK(threads >= 1, "hierarchy needs a thread");
    for (unsigned t = 0; t < threads; ++t) {
        CacheConfig l2cfg = l2;
        l2cfg.label = "L2." + std::to_string(t);
        l2s_.push_back(
            std::make_unique<Cache>(l2cfg, std::make_unique<LruPolicy>()));
    }
}

Hierarchy::Hierarchy(const HierarchyConfig &config,
                     std::unique_ptr<ReplacementPolicy> llc_policy)
    : private_(config.l2, config.numThreads),
      llc_(std::make_unique<Cache>(config.llc, std::move(llc_policy)))
{}

HierarchyResult
Hierarchy::access(const Access &access)
{
    HierarchyResult result;
    result.level = HitLevel::L2;
    private_.walk(access, [&](const LlcOp &op) {
        if (op.kind != LlcOp::Demand)
            return applyNonDemand(*llc_, op);
        const AccessOutcome out =
            llc_->access(op.context(llc_->setIndex(op.lineAddr)));
        result.level = out.hit ? HitLevel::Llc : HitLevel::Memory;
    });
    return result;
}

} // namespace pdp
