#include "sim/lockstep_sweep.h"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.h"
#include "check/check.h"

namespace pdp
{

namespace
{

/** One captured LLC access (demand or L2-victim writeback). */
struct LlcOp
{
    uint64_t lineAddr = 0;
    uint64_t pc = 0;
    /** Chunk-local index of the demand access this op answers; -1 for
     *  writebacks (which have no timing-level slot). */
    int32_t accessIdx = -1;
    /** Full LLC set index. */
    uint32_t set = 0;
    uint8_t threadId = 0;
    bool isWrite = false;
    bool isWriteback = false;
};

/** Accesses captured per chunk.  Big enough to amortize the per-chunk
 *  thread fan-out, small enough that the chunk's gap/op/hit arrays
 *  stay resident in the host's caches. */
constexpr size_t kStreamChunk = size_t{1} << 15;

/** One run of consecutive L2 hits preceding a demand op: summed
 *  instruction gaps plus the hit count.  L2 hits are lane-invariant
 *  (every sweep config sees the same L2), so per-lane timing replay
 *  folds each run into one TimingModel::onL2Hits call instead of
 *  walking every access — O(LLC ops) per lane, not O(accesses). */
struct TimingSegment
{
    uint64_t gapSum = 0;
    uint32_t count = 0;
};

/**
 * The sequential front end: generator + per-thread L2s, emitting chunk
 * buffers of LLC ops.  With no prefetcher attached the LLC's input
 * stream is fully determined by the generator and the L2 walk — the L2
 * is always plain LRU, so nothing the LLC decides ever feeds back into
 * which ops reach it.  One front end therefore serves every lane: it
 * decodes the trace and fills the L2 once, and emits the LLC ops
 * (demand accesses plus dirty-L2-victim writebacks, in hierarchy order)
 * for the lanes to replay.
 */
class LlcStreamFrontEnd
{
  public:
    explicit LlcStreamFrontEnd(const HierarchyConfig &config)
        : setMask_(config.llc.numSets() - 1)
    {
        for (unsigned t = 0; t < config.numThreads; ++t) {
            CacheConfig l2cfg = config.l2;
            l2cfg.label = "L2." + std::to_string(t);
            l2s_.push_back(std::make_unique<Cache>(
                l2cfg, std::make_unique<LruPolicy>()));
        }
        gaps_.resize(kStreamChunk);
        // Worst case two ops per access (demand + dirty L2 victim).
        ops_.reserve(2 * kStreamChunk);
        segments_.reserve(kStreamChunk);
    }

    /** Decode and L2-filter the next min(budget, kStreamChunk) accesses
     *  into the chunk buffers; returns how many were consumed. */
    size_t
    fill(AccessGenerator &gen, uint64_t budget)
    {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(budget, kStreamChunk));
        ops_.clear();
        segments_.clear();
        TimingSegment run;
        AccessContext ctx;
        for (size_t i = 0; i < n; ++i) {
            const Access access = gen.next();
            gaps_[i] = access.instrGap;

            Cache &l2 = *l2s_[access.threadId < l2s_.size()
                                  ? access.threadId
                                  : 0];
            ctx.lineAddr = access.lineAddr;
            ctx.pc = access.pc;
            ctx.threadId = access.threadId;
            ctx.isWrite = access.isWrite;
            ctx.isWriteback = false;
            ctx.set = l2.setIndex(ctx.lineAddr);
            const AccessOutcome l2_out = l2.access(ctx);
            if (l2_out.hit) {
                run.gapSum += gaps_[i];
                ++run.count;
                continue;
            }

            LlcOp op;
            op.lineAddr = access.lineAddr;
            op.pc = access.pc;
            op.accessIdx = static_cast<int32_t>(i);
            op.set = static_cast<uint32_t>(access.lineAddr & setMask_);
            op.threadId = access.threadId;
            op.isWrite = access.isWrite;
            ops_.push_back(op);
            // The op's own gap is replayed through onAccess; the run
            // of L2 hits before it is this op's timing segment.
            segments_.push_back(run);
            run = TimingSegment{};

            // Dirty L2 victim writes back into the LLC, in order.
            if (l2_out.evictedValid && l2_out.evictedDirty) {
                LlcOp wb;
                wb.lineAddr = l2_out.evictedAddr;
                wb.set = static_cast<uint32_t>(l2_out.evictedAddr &
                                               setMask_);
                wb.threadId = l2_out.evictedThread;
                wb.isWrite = true;
                wb.isWriteback = true;
                ops_.push_back(wb);
            }
        }
        tail_ = run;
        return n;
    }

    const std::vector<uint32_t> &gaps() const { return gaps_; }
    const std::vector<LlcOp> &ops() const { return ops_; }

    /** One TimingSegment per demand op, in op order. */
    const std::vector<TimingSegment> &segments() const { return segments_; }
    /** L2 hits after the chunk's last demand op. */
    const TimingSegment &tailSegment() const { return tail_; }

    void
    resetL2Stats()
    {
        for (auto &l2 : l2s_)
            l2->resetStats();
    }

  private:
    uint64_t setMask_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::vector<uint32_t> gaps_;
    std::vector<LlcOp> ops_;
    std::vector<TimingSegment> segments_;
    TimingSegment tail_;
};

/** One sweep config's private simulation state: LLC + policy, its own
 *  per-access LLC-hit buffer and (in the measured phase) timing model.
 *  A lane is only ever touched by one worker at a time; the per-chunk
 *  join barrier orders chunk N's walk before chunk N+1's. */
struct Lane
{
    std::unique_ptr<Cache> llc;
    std::unique_ptr<TimingModel> timing;
    /** Per chunk access slot: 1 when its demand op hit in this LLC. */
    std::vector<uint8_t> llcHit;
};

/** Replay one chunk's ops against `cache`, stamping each demand op's
 *  outcome into its access slot of `llcHit`. */
void
replayOps(Cache &cache, const std::vector<LlcOp> &ops, uint8_t *llcHit)
{
    AccessContext ctx;
    for (const LlcOp &op : ops) {
        ctx.lineAddr = op.lineAddr;
        ctx.pc = op.pc;
        ctx.set = op.set;
        ctx.threadId = op.threadId;
        ctx.isWrite = op.isWrite;
        ctx.isWriteback = op.isWriteback;
        const AccessOutcome out = cache.access(ctx);
        if (op.accessIdx >= 0)
            llcHit[op.accessIdx] = out.hit ? 1 : 0;
    }
}

/** Walk one chunk through one lane: replay the LLC ops, then (measured
 *  phase) replay timing.  Lanes only diverge at demand-op slots — the
 *  L2-hit runs between them are lane-invariant, so each run is folded
 *  into one O(1) onL2Hits call via the front end's precomputed segments
 *  instead of walking every access per lane. */
void
walkLane(Lane &lane, const std::vector<LlcOp> &ops,
         const std::vector<TimingSegment> &segments,
         const TimingSegment &tail, const uint32_t *gaps)
{
    replayOps(*lane.llc, ops, lane.llcHit.data());
    if (!lane.timing)
        return;
    size_t seg = 0;
    for (const LlcOp &op : ops) {
        if (op.accessIdx < 0)
            continue;
        const TimingSegment &run = segments[seg++];
        lane.timing->onL2Hits(run.gapSum, run.count);
        lane.timing->onAccess(gaps[op.accessIdx],
                              lane.llcHit[op.accessIdx] ? HitLevel::Llc
                                                        : HitLevel::Memory);
    }
    lane.timing->onL2Hits(tail.gapSum, tail.count);
}

void
runPhase(AccessGenerator &gen, LlcStreamFrontEnd &frontEnd,
         std::vector<Lane> &lanes, uint64_t total, unsigned threads)
{
    const unsigned fanOut = std::min<unsigned>(
        std::max(1u, threads), static_cast<unsigned>(lanes.size()));
    uint64_t remaining = total;
    while (remaining > 0) {
        const size_t n = frontEnd.fill(gen, remaining);
        if (n == 0)
            break;
        remaining -= n;

        const auto &ops = frontEnd.ops();
        const auto &segments = frontEnd.segments();
        const TimingSegment tail = frontEnd.tailSegment();
        const uint32_t *gaps = frontEnd.gaps().data();

        // Worker w owns lanes w, w+fanOut, w+2*fanOut, ... — a static
        // partition, so no two workers ever touch the same lane.
        auto walkSlice = [&](unsigned w) {
            for (size_t c = w; c < lanes.size(); c += fanOut)
                walkLane(lanes[c], ops, segments, tail, gaps);
        };
        if (fanOut <= 1) {
            walkSlice(0);
        } else {
            std::vector<std::thread> workers;
            workers.reserve(fanOut - 1);
            for (unsigned w = 1; w < fanOut; ++w)
                workers.emplace_back(walkSlice, w);
            walkSlice(0);
            for (std::thread &worker : workers)
                worker.join();
        }
    }
}

} // namespace

std::vector<SimResult>
runSingleCoreLockstep(
    AccessGenerator &gen, const SimConfig &config,
    const std::vector<
        std::function<std::unique_ptr<ReplacementPolicy>()>> &makePolicies,
    unsigned threads)
{
    PDP_CHECK(!config.telemetry.enabled && config.auditEvery == 0 &&
                  !config.withPrefetcher,
              "lockstep sweeps observe no global order: run telemetry/"
              "audit/prefetcher configs on the sequential driver");
    if (makePolicies.empty())
        return {};

    LlcStreamFrontEnd frontEnd(config.hierarchy);

    std::vector<Lane> lanes(makePolicies.size());
    for (size_t c = 0; c < lanes.size(); ++c) {
        auto policy = makePolicies[c]();
        PDP_CHECK(policy != nullptr, "policy factory returned null");
        lanes[c].llc = std::make_unique<Cache>(config.hierarchy.llc,
                                               std::move(policy));
        lanes[c].llcHit.resize(kStreamChunk);
    }

    runPhase(gen, frontEnd, lanes, config.warmup, threads);
    frontEnd.resetL2Stats();
    for (Lane &lane : lanes) {
        lane.llc->resetStats();
        lane.timing = std::make_unique<TimingModel>(config.timing);
    }

    runPhase(gen, frontEnd, lanes, config.accesses, threads);

    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (const Lane &lane : lanes)
        results.push_back(makeSimResult(gen.name(),
                                        lane.llc->policy().name(),
                                        lane.llc->stats(), *lane.timing));
    return results;
}

} // namespace pdp
