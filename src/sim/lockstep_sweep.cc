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

/** One chunk of the LLC op stream.  Every access opens exactly one op
 *  (PrivateLevel::walk), so the stream alone says where each access
 *  starts; a chunk ends between accesses. */
struct Chunk
{
    std::vector<LlcOp> ops;
    /** Measured phase (false: warmup, no timing). */
    bool measured = false;
};

/** One LLC's simulation state: the cache, from its first measured
 *  chunk on its timing models, and the observers the config asks for.
 *  A lane is touched by one worker at a time, and chunks reach it in
 *  stream order (sim/lane_crew.h). */
class Lane
{
  public:
    /** @param perThread time thread t's accesses on model t (one model
     *         per hierarchy thread), instead of all on one model */
    Lane(Cache &llc, const SimConfig &config, bool perThread)
        : llc_(llc), config_(config), perThread_(perThread)
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
        if (chunk.measured && timers_.empty())
            beginMeasurement();
        // The sampler tick lives in its own instantiation, so the
        // unobserved walk carries no per-op observer branch.
        if (sampler_ && chunk.measured)
            replay<true>(chunk);
        else
            replay<false>(chunk);
    }

    /** Close the run.  Timed per thread, the SimResult's timing fields
     *  stay zero and timers() holds the per-thread models. */
    SimResult
    finish(const std::string &benchmark)
    {
        if (timers_.empty()) // no measured accesses at all
            beginMeasurement();
        phase_.reset();
        SimResult result = makeSimResult(
            benchmark, llc_.policy().name(), llc_.stats(),
            perThread_ ? TimingModel(config_.timing) : timers_.front());
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

    std::vector<TimingModel> &timers() { return timers_; }

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
        timers_.assign(perThread_ ? config_.hierarchy.numThreads : 1,
                       TimingModel(config_.timing));
        phase_.emplace(trace_, "measure");
    }

    /** Walk one chunk in a single pass: replay each op and, measured,
     *  time each access at its opening op.  Sampled, an access is
     *  ticked right before the next one opens (or at the chunk's end):
     *  after its last op, as a per-access loop ticks. */
    template <bool Sampled>
    void
    replay(const Chunk &chunk)
    {
        Cache &cache = llc_;
        TimingModel *timers = timers_.empty() ? nullptr : timers_.data();
        const bool perThread = perThread_;
        const LlcOp *first = chunk.ops.data();
        for (const LlcOp &op : chunk.ops) {
            if (!op.opensAccess()) {
                applyNonDemand(cache, op);
                continue;
            }
            if constexpr (Sampled)
                if (&op != first)
                    sampler_->onAccess();
            HitLevel level = HitLevel::L2;
            if (op.kind == LlcOp::Demand) {
                const AccessOutcome out =
                    cache.access(op.context(cache.setIndex(op.lineAddr)));
                level = out.hit ? HitLevel::Llc : HitLevel::Memory;
            }
            if (!timers)
                continue;
            PDP_DCHECK(!perThread || op.threadId < timers_.size(),
                       "access of thread ", unsigned{op.threadId},
                       " outside the lane's ", timers_.size(), " timers");
            timers[perThread ? op.threadId : 0].onAccess(op.gap, level);
        }
        // A chunk holds at least one access, and its first op opens it.
        if constexpr (Sampled)
            sampler_->onAccess();
    }

    Cache &llc_;
    const SimConfig &config_;
    bool perThread_;
    /** Empty until the measured phase begins. */
    std::vector<TimingModel> timers_;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<telemetry::EpochSampler> sampler_;
    telemetry::EventTrace *trace_ = nullptr;
    /** The open "warmup" or "measure" phase timer. */
    std::optional<telemetry::ScopedPhaseTimer> phase_;
};

/** Walk `gen` through `front` once, warmup chunks first and then
 *  measured ones (no chunk spans the two), and replay every chunk on
 *  every lane. */
void
driveStream(AccessGenerator &gen, PrivateLevel &front,
            std::vector<std::unique_ptr<Lane>> &lanes,
            const SimConfig &config, unsigned threads)
{
    uint64_t warmup = config.warmup, measured = config.accesses;
    const auto fillNext = [&](Chunk &chunk) {
        uint64_t &budget = warmup > 0 ? warmup : measured;
        if (budget == 0)
            return false;
        chunk.measured = &budget == &measured;
        const uint64_t n = std::min<uint64_t>(budget, kStreamChunk);
        budget -= n;
        // Two ops per access (opening op + dirty L2 victim) w/o
        // prefetches.
        chunk.ops.reserve(2 * kStreamChunk);
        chunk.ops.clear();
        for (uint64_t i = 0; i < n; ++i)
            front.walk(gen.next(),
                       [&](const LlcOp &op) { chunk.ops.push_back(op); });
        return true;
    };

    // The caller is one lane worker; up to threads - 1 helpers replay
    // while it decodes.  With helpers the front end is double-buffered:
    // chunk k + 1 is decoded while the lanes replay chunk k.
    driveLanes<Chunk>(lanes.size(), threads, fillNext,
                      [&](size_t c, const Chunk &chunk) {
                          lanes[c]->walk(chunk);
                      });
}

} // namespace

std::vector<SimResult>
runSingleCoreLockstep(AccessGenerator &gen, PrivateLevel &front,
                      const std::vector<Cache *> &llcs,
                      const SimConfig &config, unsigned threads)
{
    std::vector<std::unique_ptr<Lane>> lanes;
    lanes.reserve(llcs.size());
    for (Cache *llc : llcs)
        lanes.push_back(std::make_unique<Lane>(*llc, config, false));
    if (!lanes.empty())
        driveStream(gen, front, lanes, config, threads);

    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (auto &lane : lanes)
        results.push_back(lane->finish(gen.name()));
    return results;
}

ThreadTimedRun
runThreadTimedLane(AccessGenerator &gen, PrivateLevel &front, Cache &llc,
                   const SimConfig &config)
{
    std::vector<std::unique_ptr<Lane>> lanes;
    lanes.push_back(std::make_unique<Lane>(llc, config, true));
    driveStream(gen, front, lanes, config, 1);
    ThreadTimedRun run;
    run.lane = lanes.front()->finish(gen.name());
    run.timers = std::move(lanes.front()->timers());
    return run;
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
