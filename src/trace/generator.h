/**
 * @file
 * Abstract interface for access-stream generators.
 */

#ifndef PDP_TRACE_GENERATOR_H
#define PDP_TRACE_GENERATOR_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/access.h"

namespace pdp
{

/**
 * Produces a deterministic, infinite stream of Access records.
 *
 * Generators are infinite: the simulator decides when to stop (by access
 * count).  A multiprogrammed run interleaves its threads round-robin in
 * whole rounds (sim/multi_core_sim.h), so no thread finishes early and
 * the paper's "rewind and continue" never arises.  reset() rewinds the
 * stream to its first access, for callers that replay one input several
 * times (perfbench's timed repetitions).
 */
class AccessGenerator
{
  public:
    virtual ~AccessGenerator() = default;

    /** Produce the next access of the stream. */
    virtual Access next() = 0;

    /** Rewind the stream to its beginning (bit-exact replay). */
    virtual void reset() = 0;

    /** Human-readable generator name (benchmark name). */
    virtual const std::string &name() const = 0;
};

using GeneratorPtr = std::unique_ptr<AccessGenerator>;

} // namespace pdp

#endif // PDP_TRACE_GENERATOR_H
