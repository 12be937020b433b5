#include "sim/lockstep_sweep.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "check/check.h"

namespace pdp
{

namespace
{

/** One captured LLC access (demand or L2-victim writeback).  The set
 *  index is not stored: each lane derives it from the line address. */
struct LlcOp
{
    uint64_t lineAddr = 0;
    uint64_t pc = 0;
    /** Instruction gap of the demand access this op answers, replayed
     *  through TimingModel::onAccess; 0 for writebacks (which have no
     *  timing-level slot). */
    uint32_t gap = 0;
    uint8_t threadId = 0;
    bool isWrite = false;
    bool isWriteback = false;
};
static_assert(sizeof(LlcOp) == 24, "LlcOp is the chunk buffers' bulk");

/** Accesses captured per chunk.  Big enough to amortize the per-chunk
 *  hand-off to the lane workers, small enough that a chunk's ops stay
 *  resident in the host's caches while every lane walks them. */
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

/** One chunk of the LLC op stream, as every lane replays it. */
struct Chunk
{
    std::vector<LlcOp> ops;
    /** One TimingSegment per demand op, in op order. */
    std::vector<TimingSegment> segments;
    /** L2 hits after the chunk's last demand op. */
    TimingSegment tail;
    /** Measured phase (false: warmup, no timing). */
    bool measured = false;
};

/**
 * The sequential front end: generator + per-thread L2s, emitting chunks
 * of LLC ops.  With no prefetcher attached the LLC's input stream is
 * fully determined by the generator and the L2 walk — the L2 is always
 * plain LRU, so nothing the LLC decides ever feeds back into which ops
 * reach it.  One front end therefore serves every lane: it decodes the
 * trace and fills the L2 once, and emits the LLC ops (demand accesses
 * plus dirty-L2-victim writebacks, in hierarchy order) for the lanes to
 * replay.
 */
class LlcStreamFrontEnd
{
  public:
    explicit LlcStreamFrontEnd(const HierarchyConfig &config)
    {
        for (unsigned t = 0; t < config.numThreads; ++t) {
            CacheConfig l2cfg = config.l2;
            l2cfg.label = "L2." + std::to_string(t);
            l2s_.push_back(std::make_unique<Cache>(
                l2cfg, std::make_unique<LruPolicy>()));
        }
    }

    /** Decode and L2-filter the next min(budget, kStreamChunk) accesses
     *  into `chunk`; returns how many were consumed. */
    size_t
    fill(AccessGenerator &gen, uint64_t budget, Chunk &chunk)
    {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(budget, kStreamChunk));
        // Worst case two ops per access (demand + dirty L2 victim).
        chunk.ops.reserve(2 * kStreamChunk);
        chunk.segments.reserve(kStreamChunk);
        chunk.ops.clear();
        chunk.segments.clear();
        TimingSegment run;
        AccessContext ctx;
        for (size_t i = 0; i < n; ++i) {
            const Access access = gen.next();

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
                run.gapSum += access.instrGap;
                ++run.count;
                continue;
            }

            LlcOp op;
            op.lineAddr = access.lineAddr;
            op.pc = access.pc;
            op.gap = access.instrGap;
            op.threadId = access.threadId;
            op.isWrite = access.isWrite;
            chunk.ops.push_back(op);
            // The op's own gap is replayed through onAccess; the run
            // of L2 hits before it is this op's timing segment.
            chunk.segments.push_back(run);
            run = TimingSegment{};

            // Dirty L2 victim writes back into the LLC, in order.
            if (l2_out.evictedValid && l2_out.evictedDirty) {
                LlcOp wb;
                wb.lineAddr = l2_out.evictedAddr;
                wb.threadId = l2_out.evictedThread;
                wb.isWrite = true;
                wb.isWriteback = true;
                chunk.ops.push_back(wb);
            }
        }
        chunk.tail = run;
        return n;
    }

  private:
    std::vector<std::unique_ptr<Cache>> l2s_;
};

/** One sweep config's private simulation state: LLC + policy and, from
 *  its first measured chunk on, a timing model.  A lane is only ever
 *  touched by one worker at a time, and chunks reach it in stream
 *  order (LaneCrew's per-chunk join orders chunk k before k + 1). */
struct Lane
{
    std::unique_ptr<Cache> llc;
    std::unique_ptr<TimingModel> timing;
};

/** Enter the measured phase: discard warmup stats, start timing. */
void
beginMeasurement(Lane &lane, const SimConfig &config)
{
    lane.llc->resetStats();
    lane.timing = std::make_unique<TimingModel>(config.timing);
}

/** Walk one chunk through one lane in a single pass: replay each LLC op
 *  and, in the measured phase, time each demand op as it resolves.
 *  Lanes only diverge at demand-op slots — the L2-hit runs between them
 *  are lane-invariant, so each run is folded into one O(1) onL2Hits
 *  call via the front end's precomputed segments instead of walking
 *  every access per lane.  Timing never touches the LLC, so interleaving
 *  it with the replay gives the same sums as a separate pass. */
void
walkLane(Lane &lane, const Chunk &chunk, const SimConfig &config)
{
    if (chunk.measured && !lane.timing)
        beginMeasurement(lane, config);
    Cache &cache = *lane.llc;
    TimingModel *timing = lane.timing.get();
    const TimingSegment *segment = chunk.segments.data();
    AccessContext ctx;
    for (const LlcOp &op : chunk.ops) {
        ctx.lineAddr = op.lineAddr;
        ctx.pc = op.pc;
        ctx.set = cache.setIndex(op.lineAddr);
        ctx.threadId = op.threadId;
        ctx.isWrite = op.isWrite;
        ctx.isWriteback = op.isWriteback;
        const AccessOutcome out = cache.access(ctx);
        if (op.isWriteback)
            continue;
        const TimingSegment &run = *segment++;
        if (!timing)
            continue;
        timing->onL2Hits(run.gapSum, run.count);
        timing->onAccess(op.gap,
                         out.hit ? HitLevel::Llc : HitLevel::Memory);
    }
    if (timing)
        timing->onL2Hits(chunk.tail.gapSum, chunk.tail.count);
}

/**
 * Lane workers that live for one runSingleCoreLockstep call.  Each round
 * replays one chunk on every lane; lanes are claimed one at a time
 * through an atomic index, so a costly lane (EELRU) never holds back a
 * static slice of cheap ones.  start() hands a chunk to the helper
 * threads and returns, so the caller can decode the next chunk while
 * they replay; finish() makes the caller claim lanes too and then waits
 * until every lane has replayed the chunk.
 */
class LaneCrew
{
  public:
    LaneCrew(std::vector<Lane> &lanes, const SimConfig &config,
             unsigned helpers)
        : lanes_(lanes), config_(config)
    {
        threads_.reserve(helpers);
        for (unsigned h = 0; h < helpers; ++h)
            threads_.emplace_back([this] { helperLoop(); });
    }

    ~LaneCrew()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &thread : threads_)
            thread.join();
    }

    LaneCrew(const LaneCrew &) = delete;
    LaneCrew &operator=(const LaneCrew &) = delete;

    bool hasHelpers() const { return !threads_.empty(); }

    void
    start(const Chunk &chunk)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            chunk_ = &chunk;
            next_.store(0);
            running_ = static_cast<unsigned>(threads_.size());
            ++round_;
        }
        wake_.notify_all();
    }

    /** Rethrows the first exception a lane walk raised this round. */
    void
    finish()
    {
        claimLanes(*chunk_);
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return running_ == 0; });
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    }

  private:
    void
    claimLanes(const Chunk &chunk)
    {
        for (size_t c = next_.fetch_add(1); c < lanes_.size();
             c = next_.fetch_add(1)) {
            try {
                walkLane(lanes_[c], chunk, config_);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
        }
    }

    void
    helperLoop()
    {
        uint64_t seen = 0;
        for (;;) {
            const Chunk *chunk = nullptr;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [&] { return stop_ || round_ != seen; });
                if (stop_)
                    return;
                seen = round_;
                chunk = chunk_;
            }
            claimLanes(*chunk);
            std::lock_guard<std::mutex> lock(mutex_);
            if (--running_ == 0)
                done_.notify_one();
        }
    }

    std::vector<Lane> &lanes_;
    const SimConfig &config_;
    std::mutex mutex_;
    std::condition_variable wake_, done_;
    const Chunk *chunk_ = nullptr;
    uint64_t round_ = 0;
    /** Helpers that have not yet finished the current round. */
    unsigned running_ = 0;
    bool stop_ = false;
    std::atomic<size_t> next_{0};
    std::exception_ptr error_;
    std::vector<std::thread> threads_;
};

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
    }

    // Warmup chunks first, then measured ones; no chunk spans the two.
    uint64_t warmup = config.warmup, measured = config.accesses;
    const auto fillNext = [&](Chunk &chunk) {
        uint64_t &budget = warmup > 0 ? warmup : measured;
        if (budget == 0)
            return false;
        chunk.measured = &budget == &measured;
        budget -= frontEnd.fill(gen, budget, chunk);
        return true;
    };

    // The caller is one lane worker; up to threads - 1 helpers replay
    // while it decodes.  With helpers the front end is double-buffered:
    // chunk k + 1 is decoded while the lanes replay chunk k.
    std::vector<Chunk> chunks(2);
    LaneCrew crew(lanes, config,
                  std::min<unsigned>(std::max(1u, threads) - 1,
                                     static_cast<unsigned>(lanes.size())));
    Chunk *current = &chunks[0];
    Chunk *next = crew.hasHelpers() ? &chunks[1] : current;
    for (bool more = fillNext(*current); more; std::swap(current, next)) {
        crew.start(*current);
        if (crew.hasHelpers())
            more = fillNext(*next);
        crew.finish();
        if (!crew.hasHelpers())
            more = fillNext(*next);
    }

    std::vector<SimResult> results;
    results.reserve(lanes.size());
    for (Lane &lane : lanes) {
        if (!lane.timing) // no measured accesses at all
            beginMeasurement(lane, config);
        results.push_back(makeSimResult(gen.name(),
                                        lane.llc->policy().name(),
                                        lane.llc->stats(), *lane.timing));
    }
    return results;
}

} // namespace pdp
