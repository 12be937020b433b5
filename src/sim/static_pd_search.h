/**
 * @file
 * Exhaustive-ish search for the best static protecting distance of a
 * benchmark (the "SPDP with the best PD" of Figs. 4 and 10 and the
 * optimal-PD distribution of Table 2).
 */

#ifndef PDP_SIM_STATIC_PD_SEARCH_H
#define PDP_SIM_STATIC_PD_SEARCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/single_core_sim.h"

namespace pdp
{

/** Outcome of a static-PD sweep. */
struct StaticPdResult
{
    uint32_t bestPd = 0;
    SimResult best;
    /** Full sweep, one entry per grid point. */
    std::vector<std::pair<uint32_t, SimResult>> sweep;
};

/** The default PD grid (16 = associativity up to d_max = 256). */
std::vector<uint32_t> defaultPdGrid();

/**
 * Sweep static PDs for one benchmark and return the miss-minimizing one
 * (strictly fewer misses wins, so ties keep the earliest grid point).
 * The grid runs as one lockstep call: one decode, one lane per PD, on
 * the caller's thread.
 *
 * @param benchmark suite benchmark name
 * @param bypass true for SPDP-B, false for SPDP-NB
 * @param config run configuration
 * @param grid PD candidates (defaultPdGrid() if empty)
 */
StaticPdResult bestStaticPd(const std::string &benchmark, bool bypass,
                            const SimConfig &config,
                            std::vector<uint32_t> grid = {});

} // namespace pdp

#endif // PDP_SIM_STATIC_PD_SEARCH_H
