#include "runner/progress.h"

#include <cstdio>
#include <cstdlib>

namespace pdp
{
namespace runner
{

ProgressReporter &
ProgressReporter::global()
{
    static ProgressReporter reporter;
    static const bool initialized = [] {
        const char *env = std::getenv("PDP_BENCH_VERBOSE");
        reporter.setVerbose(env && env[0] == '1');
        return true;
    }();
    (void)initialized;
    return reporter;
}

void
ProgressReporter::setVerbose(bool verbose)
{
    std::lock_guard<std::mutex> lock(mutex_);
    verbose_ = verbose;
}

bool
ProgressReporter::verbose() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return verbose_;
}

void
ProgressReporter::beginBatch(const std::string &name, size_t total,
                             unsigned workers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = name;
    total_ = total;
    done_ = 0;
    workers_ = workers;
    // pdplint: allow(wall-clock) batch timer feeds the verbose-mode ETA
    // display only, never a result.
    start_ = std::chrono::steady_clock::now();
    if (verbose_)
        std::fprintf(stderr, "[runner] %s: %zu job(s) on %u worker(s)\n",
                     name.c_str(), total, workers);
}

void
ProgressReporter::jobFinished(const std::vector<JobRecord> &records,
                              unsigned busyWorkers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++done_;
    if (!verbose_)
        return;

    // pdplint: allow(wall-clock) progress/ETA stderr line only; job
    // results never see this value.
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    // Crude but serviceable ETA: average job cost so far times the
    // remaining count, discounted by the worker fan-out.
    double eta = 0.0;
    if (done_ > 0 && done_ < total_ && workers_ > 0)
        eta = elapsed / static_cast<double>(done_) *
              static_cast<double>(total_ - done_) / workers_;

    const JobRecord &record = records.front();
    const std::string name = record.group.empty()
        ? record.key
        : record.group + " [" + std::to_string(records.size()) + " records]";
    std::fprintf(stderr,
                 "[runner] %s %zu/%zu %s %.2fs %s (busy %u/%u, ETA %.0fs)\n",
                 batch_.c_str(), done_, total_, toString(record.status),
                 record.seconds, name.c_str(), busyWorkers, workers_, eta);
}

size_t
ProgressReporter::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_;
}

void
ProgressReporter::note(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (verbose_)
        std::fprintf(stderr, "[bench] %s\n", line.c_str());
}

} // namespace runner
} // namespace pdp
