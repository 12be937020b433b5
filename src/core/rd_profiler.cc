#include "core/rd_profiler.h"

namespace pdp
{

RdProfiler::RdProfiler(uint32_t num_sets, uint32_t d_max)
    : dMax_(d_max), sets_(num_sets), histogram_(d_max),
      pairHistogram_(d_max)
{
}

RdProfiler::LineState &
RdProfiler::probe(SetState &state, uint64_t line_addr)
{
    // Lines of one set share their low (index) bits: hash with the
    // high half of a multiplicative mix instead.
    const size_t mask = state.slots.size() - 1;
    size_t i = static_cast<size_t>(
        (line_addr * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (state.slots[i].used && state.slots[i].lineAddr != line_addr)
        i = (i + 1) & mask;
    return state.slots[i];
}

void
RdProfiler::grow(SetState &state)
{
    std::vector<LineState> old = std::move(state.slots);
    state.slots.assign(old.empty() ? 8 : 2 * old.size(), LineState{});
    for (const LineState &line : old)
        if (line.used)
            probe(state, line.lineAddr) = line;
}

void
RdProfiler::prune(SetState &state)
{
    // Entries older than d_max can only produce overflow observations;
    // drop them to bound memory on streaming workloads.
    if (state.lines < 4ull * dMax_)
        return;
    std::vector<LineState> old = std::move(state.slots);
    state.slots.assign(old.size(), LineState{});
    state.lines = 0;
    for (const LineState &line : old)
        if (line.used && state.counter - line.lastAccess <= dMax_) {
            probe(state, line.lineAddr) = line;
            ++state.lines;
        }
}

void
RdProfiler::observe(uint32_t set, uint64_t line_addr)
{
    SetState &state = sets_[set];
    ++state.counter;
    ++accesses_;

    if (2 * (state.lines + 1) > state.slots.size())
        grow(state);
    LineState &line = probe(state, line_addr);
    if (line.used) {
        const uint64_t rd = state.counter - line.lastAccess;
        if (rd >= 1 && rd <= dMax_) {
            histogram_.add(static_cast<size_t>(rd - 1));
            const uint32_t prev = line.prevDist;
            if (prev >= 1 && prev <= dMax_) {
                const uint64_t mx = rd > prev ? rd : prev;
                pairHistogram_.add(static_cast<size_t>(mx - 1));
            }
            line.prevDist = static_cast<uint32_t>(rd);
        } else {
            histogram_.add(dMax_); // overflow bucket
            line.prevDist = dMax_ + 1;
        }
        line.lastAccess = state.counter;
    } else {
        line = LineState{line_addr, state.counter, 0, true};
        ++state.lines;
        prune(state);
    }
}

double
RdProfiler::coveredFraction() const
{
    if (accesses_ == 0)
        return 0.0;
    uint64_t covered = 0;
    for (size_t d = 0; d < histogram_.size(); ++d)
        covered += histogram_.at(d);
    return static_cast<double>(covered) / static_cast<double>(accesses_);
}

double
RdProfiler::tailFraction() const
{
    if (accesses_ == 0)
        return 0.0;
    return static_cast<double>(tailMass()) / static_cast<double>(accesses_);
}

uint32_t
RdProfiler::peakRd() const
{
    uint32_t peak = 1;
    uint64_t best = 0;
    for (size_t d = 0; d < histogram_.size(); ++d) {
        if (histogram_.at(d) > best) {
            best = histogram_.at(d);
            peak = static_cast<uint32_t>(d + 1);
        }
    }
    return peak;
}

void
RdProfiler::reset()
{
    for (auto &state : sets_)
        state = SetState{};
    histogram_.reset();
    pairHistogram_.reset();
    accesses_ = 0;
}

void
RdProfiler::clearCounts()
{
    histogram_.reset();
    pairHistogram_.reset();
    accesses_ = 0;
}

} // namespace pdp
