/**
 * @file
 * Serialized progress reporting for experiment sweeps.
 *
 * Worker threads finish jobs concurrently; the reporter is the single
 * funnel through which anything they say reaches stderr, so partial
 * lines never interleave.  Every emission is one complete line written
 * with a single fprintf under a mutex.
 *
 * The benches' old ad-hoc `pdpbench::progress()` is now a thin wrapper
 * around ProgressReporter::global().note(), so serial harnesses and
 * parallel sweeps share one output path.
 */

#ifndef PDP_RUNNER_PROGRESS_H
#define PDP_RUNNER_PROGRESS_H

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "runner/job.h"

namespace pdp
{
namespace runner
{

/**
 * Thread-safe batch progress + free-form notes on stderr.
 *
 * Verbosity is off by default; global() initializes it from
 * PDP_BENCH_VERBOSE once.  When quiet, both notes and per-job progress
 * lines are suppressed (batch summaries are the caller's business).
 */
class ProgressReporter
{
  public:
    ProgressReporter() = default;

    /** The process-wide reporter (verbosity seeded from
     *  PDP_BENCH_VERBOSE on first use). */
    static ProgressReporter &global();

    void setVerbose(bool verbose);
    bool verbose() const;

    /** Start a batch of `total` jobs on `workers` workers. */
    void beginBatch(const std::string &name, size_t total, unsigned workers);

    /**
     * Record one finished job: its single record, or every record of a
     * runMany group.  Emits (when verbose) one line per job, naming the
     * group and its wall time once:
     *   [runner] fig10 12/442 ok 1.32s fig10/gcc/DIP (busy 3/8, ETA 42s)
     *   [runner] fig10 13/442 ok 9.80s fig10/gcc/lockstep [18 records] ...
     * `busyWorkers` is the executor's count of still-occupied workers.
     */
    void jobFinished(const std::vector<JobRecord> &records,
                     unsigned busyWorkers);

    /** Completed / total of the current batch. */
    size_t completed() const;

    /** Emit one free-form `[bench] ...` line (when verbose). */
    void note(const std::string &line);

  private:
    mutable std::mutex mutex_;
    bool verbose_ = false;
    std::string batch_;
    size_t total_ = 0;
    size_t done_ = 0;
    unsigned workers_ = 0;
    std::chrono::steady_clock::time_point start_{};
};

} // namespace runner
} // namespace pdp

#endif // PDP_RUNNER_PROGRESS_H
