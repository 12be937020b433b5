#include "sim/lockstep_sweep.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/invariant_auditor.h"
#include "sim/lane_crew.h"

namespace pdp
{

namespace
{

static_assert(sizeof(LlcOp) == 24, "LlcOp is the chunk buffers' bulk");

/** Accesses captured per chunk.  Big enough to amortize the per-chunk
 *  hand-off to the lane workers, small enough that a chunk's ops stay
 *  resident in the host's caches while every lane walks them. */
constexpr size_t kStreamChunk = size_t{1} << 15;

/** A run of consecutive op-less accesses (L2 hits) before an opening
 *  op: summed instruction gaps plus the count.  They are lane-invariant,
 *  so a lane folds each run into one TimingModel::onL2Hits call (and
 *  one sampler tick): O(LLC ops) per lane, not O(accesses). */
struct TimingSegment
{
    uint64_t gapSum = 0;
    uint32_t count = 0;
};

/** One chunk of the LLC op stream; it ends between accesses. */
struct Chunk
{
    std::vector<LlcOp> ops;
    /** One TimingSegment per opening op, in op order. */
    std::vector<TimingSegment> segments;
    /** Op-less accesses after the chunk's last opening op. */
    TimingSegment tail;
    /** Measured phase (false: warmup, no timing). */
    bool measured = false;
};

/** One LLC's simulation state: the cache, from its first measured
 *  chunk on a timing model, and the observers the config asks for.  A
 *  lane is touched by one worker at a time, and chunks reach it in
 *  stream order (sim/lane_crew.h). */
class Lane
{
  public:
    Lane(Cache &llc, const SimConfig &config) : llc_(llc), config_(config)
    {
        // The auditor only watches the measured phase, so the warmup
        // runs at full speed.
        if (config.auditEvery > 0) {
            InvariantAuditor::Options opts;
            opts.cadence = config.auditEvery;
            opts.failFast = config.auditFailFast;
            auditor_ = std::make_unique<InvariantAuditor>(opts);
            auditor_->watchCache(llc);
        }
        if (config.telemetry.enabled)
            sampler_ = std::make_unique<telemetry::EpochSampler>(
                config.telemetry, llc, config.accesses,
                config.hierarchy.numThreads);
        trace_ = sampler_ ? sampler_->trace() : nullptr;
        phase_.emplace(trace_, "warmup");
    }

    ~Lane()
    {
        if (auditor_)
            llc_.setAuditor(nullptr);
    }

    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    void
    walk(const Chunk &chunk)
    {
        if (chunk.measured && !timing_)
            beginMeasurement();
        // The sampler tick lives in its own instantiation, so the
        // unobserved walk carries no per-op observer branch.
        if (sampler_ && chunk.measured)
            replay<true>(chunk);
        else
            replay<false>(chunk);
    }

    SimResult
    finish(const std::string &benchmark)
    {
        if (!timing_) // no measured accesses at all
            beginMeasurement();
        phase_.reset();
        SimResult result = makeSimResult(benchmark, llc_.policy().name(),
                                         llc_.stats(), *timing_);
        if (auditor_) {
            llc_.setAuditor(nullptr);
            auditor_->auditNow();
            result.auditsRun = auditor_->auditsRun();
            result.auditViolations = auditor_->totalViolations();
        }
        if (sampler_) {
            sampler_->finish();
            result.telemetry = std::make_shared<telemetry::RunTelemetry>(
                sampler_->take());
        }
        return result;
    }

  private:
    /** Enter the measured phase: discard warmup stats, start timing. */
    void
    beginMeasurement()
    {
        phase_.reset();
        llc_.resetStats();
        if (auditor_)
            llc_.setAuditor(auditor_.get());
        if (sampler_)
            sampler_->beginMeasurement();
        timing_.emplace(config_.timing);
        phase_.emplace(trace_, "measure");
    }

    /** Walk one chunk in a single pass: replay each op and, measured,
     *  time each opened access, folding in the op-less runs.  Sampled,
     *  an access is ticked right before the next one opens (or at the
     *  chunk's end): after its last op, as a per-access loop ticks. */
    template <bool Sampled>
    void
    replay(const Chunk &chunk)
    {
        Cache &cache = llc_;
        TimingModel *timing = timing_ ? &*timing_ : nullptr;
        const TimingSegment *segment = chunk.segments.data();
        uint64_t open = 0; // the opened access not yet ticked
        for (const LlcOp &op : chunk.ops) {
            if (!op.opensAccess()) {
                applyNonDemand(cache, op);
                continue;
            }
            const TimingSegment &run = *segment++;
            if constexpr (Sampled) {
                sampler_->onAccesses(open + run.count);
                open = 1;
            }
            HitLevel level = HitLevel::L2;
            if (op.kind == LlcOp::Demand) {
                const AccessOutcome out =
                    cache.access(op.context(cache.setIndex(op.lineAddr)));
                level = out.hit ? HitLevel::Llc : HitLevel::Memory;
            }
            if (!timing)
                continue;
            timing->onL2Hits(run.gapSum, run.count);
            timing->onAccess(op.gap, level);
        }
        if constexpr (Sampled)
            sampler_->onAccesses(open + chunk.tail.count);
        if (timing)
            timing->onL2Hits(chunk.tail.gapSum, chunk.tail.count);
    }

    Cache &llc_;
    const SimConfig &config_;
    std::optional<TimingModel> timing_;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<telemetry::EpochSampler> sampler_;
    telemetry::EventTrace *trace_ = nullptr;
    /** The open "warmup" or "measure" phase timer. */
    std::optional<telemetry::ScopedPhaseTimer> phase_;
};

} // namespace

std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, PrivateLevel &front,
                      const std::vector<Cache *> &llcs,
                      const SimConfig &config, unsigned threads)
{
    if (llcs.empty())
        return {};
    std::vector<std::unique_ptr<Lane>> lanes;
    lanes.reserve(llcs.size());
    for (Cache *llc : llcs)
        lanes.push_back(std::make_unique<Lane>(*llc, config));

    // Warmup chunks first, then measured ones; no chunk spans the two.
    uint64_t warmup = config.warmup, measured = config.accesses;
    const auto fillNext = [&](Chunk &chunk) {
        uint64_t &budget = warmup > 0 ? warmup : measured;
        if (budget == 0)
            return false;
        chunk.measured = &budget == &measured;
        const uint64_t n = std::min<uint64_t>(budget, kStreamChunk);
        budget -= n;
        // Two ops per access (demand + dirty L2 victim) w/o prefetches.
        chunk.ops.reserve(2 * kStreamChunk);
        chunk.segments.reserve(kStreamChunk);
        chunk.ops.clear();
        chunk.segments.clear();
        TimingSegment run;
        for (uint64_t i = 0; i < n; ++i) {
            const Access access = gen.next();
            const bool emitted = front.walk(access, [&](const LlcOp &op) {
                if (op.opensAccess()) {
                    chunk.segments.push_back(run);
                    run = TimingSegment{};
                }
                chunk.ops.push_back(op);
            });
            if (!emitted) {
                run.gapSum += access.instrGap;
                ++run.count;
            }
        }
        chunk.tail = run;
        return true;
    };

    // The caller is one lane worker; up to threads - 1 helpers replay
    // while it decodes.  With helpers the front end is double-buffered:
    // chunk k + 1 is decoded while the lanes replay chunk k.
    driveLanes<Chunk>(lanes.size(), threads, fillNext,
                      [&](size_t c, const Chunk &chunk) {
                          lanes[c]->walk(chunk);
                      });

    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (auto &lane : lanes)
        results.push_back(lane->finish(gen.name()));
    return results;
}

std::vector<SimResult>
runSingleCoreLockstep(
    AccessGenerator &gen, const SimConfig &config,
    const std::vector<
        std::function<std::unique_ptr<ReplacementPolicy>()>> &makePolicies,
    unsigned threads)
{
    PrivateLevel front(config.hierarchy.l2, config.hierarchy.numThreads);
    std::vector<std::unique_ptr<Cache>> owned;
    std::vector<Cache *> llcs;
    for (const auto &factory : makePolicies) {
        auto policy = factory();
        PDP_CHECK(policy != nullptr, "policy factory returned null");
        owned.push_back(std::make_unique<Cache>(config.hierarchy.llc,
                                                std::move(policy)));
        llcs.push_back(owned.back().get());
    }
    return runSingleCoreLockstep(gen, front, llcs, config, threads);
}

} // namespace pdp
