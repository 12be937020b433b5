#include "runner/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>

#include "check/check.h"
#include "check/flight_recorder.h"
#include "hw/perf_counters.h"

namespace pdp
{
namespace runner
{

ThreadPoolExecutor::ThreadPoolExecutor(ExecutorOptions options)
    : options_(std::move(options))
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    workers_ = options_.workers ? options_.workers : hw;
    plainThreads_ = std::max(1u, hw / workers_);
}

std::vector<JobRecord>
ThreadPoolExecutor::execute(const Job &job, unsigned worker,
                            unsigned threads) const
{
    JobContext ctx;
    ctx.seed = job.seed;
    ctx.worker = worker;
    ctx.threads = threads;

    std::vector<JobRecord> group;

    // Bind this thread to the job so in-simulation capture sites (the
    // FlightScope inside a run) know which FLIGHT file they belong to.
    check::FlightRecorder::setJobKey(job.key);

    // Per-job hardware profiling: counters are thread-scoped, and the
    // executor runs one job per thread at a time, so the delta is the
    // job's own execution.  Null backend => hw stays invalid/absent.
    std::unique_ptr<hw::PerfCounterGroup> perf;
    hw::PerfReading perfBase;
    if (options_.perfCounters) {
        perf = std::make_unique<hw::PerfCounterGroup>();
        perf->start();
        perfBase = perf->read();
    }

    // pdplint: allow(wall-clock) job duration feeds the soft-timeout
    // check and the volatile `seconds` field only; ResultsSink omits
    // it from deterministic dumps.
    const auto start = std::chrono::steady_clock::now();
    try {
        PDP_CHECK((job.run != nullptr) + (job.runMany != nullptr) == 1,
                  "job \"", job.key,
                  "\" must set exactly one of run / runMany");
        if (job.run) {
            JobRecord record;
            record.key = job.key;
            record.seed = job.seed;
            record.outcome = job.run(ctx);
            record.status = JobStatus::Ok;
            group.push_back(std::move(record));
        } else {
            std::vector<KeyedOutcome> outcomes = job.runMany(ctx);
            PDP_CHECK(!outcomes.empty(), "job \"", job.key,
                      "\" returned no outcomes");
            group.reserve(outcomes.size());
            for (KeyedOutcome &keyed : outcomes) {
                JobRecord record;
                record.key = std::move(keyed.key);
                record.group = job.key;
                record.seed = job.seed;
                record.outcome = std::move(keyed.outcome);
                record.status = JobStatus::Ok;
                group.push_back(std::move(record));
            }
        }
    } catch (const std::exception &e) {
        group.clear();
        JobRecord record;
        record.key = job.key;
        record.seed = job.seed;
        record.status = JobStatus::Failed;
        record.error = e.what();
        group.push_back(std::move(record));
    } catch (...) {
        group.clear();
        JobRecord record;
        record.key = job.key;
        record.seed = job.seed;
        record.status = JobStatus::Failed;
        record.error = "non-standard exception";
        group.push_back(std::move(record));
    }
    const double seconds =
        // pdplint: allow(wall-clock) see above: volatile timing only.
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    hw::PerfReading perfDelta;
    if (perf)
        perfDelta = perf->read().since(perfBase);

    const double timeout = job.timeoutSeconds > 0
        ? job.timeoutSeconds
        : options_.defaultTimeoutSeconds;
    for (JobRecord &record : group) {
        record.seconds = seconds;
        record.hw = perfDelta;
        if (record.status == JobStatus::Ok && timeout > 0 &&
            seconds > timeout) {
            record.status = JobStatus::TimedOut;
            std::ostringstream os;
            os << "soft timeout: ran " << seconds << "s, budget " << timeout
               << "s";
            record.error = os.str();
        }
    }

    // Flight-recorder fallback: a simulation with a FlightScope already
    // dumped richer context during its unwind (the per-job dedup makes
    // this a no-op then); this catches everything else — jobs without a
    // scope, non-check exceptions, soft timeouts (where nothing threw).
    for (const JobRecord &record : group)
        if (record.status != JobStatus::Ok)
            check::FlightRecorder::global().dump(
                record.key,
                record.status == JobStatus::TimedOut ? "soft_timeout"
                                                     : "job_failed",
                record.error, nullptr, nullptr);
    check::FlightRecorder::setJobKey("");
    return group;
}

std::vector<JobRecord>
ThreadPoolExecutor::run(const std::vector<Job> &jobs)
{
    if (jobs.empty())
        return {};

    // Per-input-index record groups, flattened in input order below so a
    // runMany job's expansion lands exactly where its jobs-list slot is.
    std::vector<std::vector<JobRecord>> groups(jobs.size());
    std::atomic<unsigned> busy{0};

    const auto runJob = [&](size_t index, unsigned id, unsigned threads) {
        busy.fetch_add(1);
        groups[index] = execute(jobs[index], id, threads);
        const unsigned stillBusy = busy.fetch_sub(1) - 1;
        if (options_.reporter)
            options_.reporter->jobFinished(groups[index], stillBusy);
        if (options_.onComplete) {
            for (const JobRecord &record : groups[index])
                options_.onComplete(record);
        }
    };

    // Plain jobs [begin, end) on the worker pool.
    const auto runPlain = [&](size_t begin, size_t end) {
        std::atomic<size_t> next{begin};
        auto worker = [&](unsigned id) {
            for (size_t index = next.fetch_add(1); index < end;
                 index = next.fetch_add(1))
                runJob(index, id, plainThreads_);
        };
        const unsigned fanOut =
            static_cast<unsigned>(std::min<size_t>(workers_, end - begin));
        if (fanOut <= 1) {
            worker(0);
            return;
        }
        std::vector<std::thread> threads;
        threads.reserve(fanOut);
        for (unsigned id = 0; id < fanOut; ++id)
            threads.emplace_back(worker, id);
        for (std::thread &t : threads)
            t.join();
    };

    // A wide job runs alone, on this thread, with the whole budget.
    for (size_t begin = 0; begin < jobs.size();) {
        if (jobs[begin].wide) {
            runJob(begin++, 0, workers_ * plainThreads_);
            continue;
        }
        size_t end = begin;
        while (end < jobs.size() && !jobs[end].wide)
            ++end;
        runPlain(begin, end);
        begin = end;
    }

    std::vector<JobRecord> records;
    records.reserve(jobs.size());
    for (std::vector<JobRecord> &group : groups)
        for (JobRecord &record : group)
            records.push_back(std::move(record));
    return records;
}

} // namespace runner
} // namespace pdp
