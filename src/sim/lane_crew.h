/**
 * @file
 * The lane-threading harness shared by every lockstep engine.
 *
 * A lockstep engine has one sequential front end that turns a stream
 * into chunks, and N lanes that each replay every chunk in order
 * against private state (one policy's LLC, timing, observers).  Lanes
 * never read each other's state, so a chunk's lane walks can run on any
 * threads in any order; only the chunk order per lane matters.
 *
 * LaneCrew owns the helper threads for one engine call: each round
 * replays one chunk on every lane, lanes are claimed one at a time
 * through an atomic index (a costly lane never holds back a static
 * slice of cheap ones), and the caller claims lanes too once it has
 * nothing else to do.  driveLanes() is the double-buffered loop on top:
 * with helpers, the caller fills chunk k + 1 while they replay chunk k.
 * With one thread there are no helpers and one buffer, and everything
 * runs on the caller.
 *
 * Users: runSingleCoreLockstep (sim/lockstep_sweep.h) and the service
 * engine (service/service_sim.h).
 */

#ifndef PDP_SIM_LANE_CREW_H
#define PDP_SIM_LANE_CREW_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace pdp
{

/** Helper threads that replay one round (one chunk) on every lane. */
class LaneCrew
{
  public:
    /**
     * @param lanes   lane count; walk(c) is called once per lane per round
     * @param walk    replays the current round's chunk on lane c
     * @param helpers threads spawned besides the caller
     */
    LaneCrew(size_t lanes, std::function<void(size_t)> walk,
             unsigned helpers);
    ~LaneCrew();

    LaneCrew(const LaneCrew &) = delete;
    LaneCrew &operator=(const LaneCrew &) = delete;

    bool hasHelpers() const { return !threads_.empty(); }

    /** Hand the next round to the helpers and return at once. */
    void start();

    /** Claim lanes on the caller until none is left, wait for the
     *  helpers, and rethrow the first exception a lane walk raised. */
    void finish();

  private:
    void claimLanes();
    void helperLoop();

    size_t lanes_;
    std::function<void(size_t)> walk_;
    std::mutex mutex_;
    std::condition_variable wake_, done_;
    uint64_t round_ = 0;
    /** Helpers that have not yet finished the current round. */
    unsigned running_ = 0;
    bool stop_ = false;
    std::atomic<size_t> next_{0};
    std::exception_ptr error_;
    std::vector<std::thread> threads_;
};

/**
 * Run `lanes` lanes over a chunked stream on `threads` threads, the
 * caller included (0 or 1 = everything inline, one chunk buffer).
 * fill(chunk) writes the next chunk and returns false once the stream
 * is exhausted; walk(lane, chunk) replays a chunk on one lane.  Every
 * lane sees every filled chunk, in fill order.
 */
template <typename Chunk, typename Fill, typename Walk>
void
driveLanes(size_t lanes, unsigned threads, Fill &&fill, Walk &&walk)
{
    std::vector<Chunk> chunks(2);
    Chunk *current = &chunks[0];
    // `current` only changes between finish() and the next start(),
    // which order it against every helper's read.
    LaneCrew crew(
        lanes, [&](size_t lane) { walk(lane, *current); },
        static_cast<unsigned>(std::min<size_t>(
            std::max(1u, threads) - 1, lanes)));
    Chunk *next = crew.hasHelpers() ? &chunks[1] : current;
    for (bool more = fill(*current); more; std::swap(current, next)) {
        crew.start();
        if (crew.hasHelpers())
            more = fill(*next);
        crew.finish();
        if (!crew.hasHelpers())
            more = fill(*next);
    }
}

} // namespace pdp

#endif // PDP_SIM_LANE_CREW_H
