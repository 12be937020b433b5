/**
 * @file
 * The repository benchmark's measuring binary (see perfbench/README.md).
 *
 * One process runs one workload once, in one of four modes:
 *
 *   run     untraced: Suite::buildJobs -> ThreadPoolExecutor::run ->
 *           Suite::report -> ResultsSink::writeFile, in runSuite()'s
 *           order, timed from outside; prints the end-to-end figures.
 *   trace   the same run with in-memory spans around each runner call
 *           and each job's closure; prints the runner-layer figures.
 *   probe   times each layer's public calls on the workload's inputs
 *           (trace, cache, policies, core, sim, model, service) and
 *           reports, per policy, the end-to-end cell and the sum of its
 *           layers for run.py's layer-sum check.
 *   digest  digest of a BENCH_<suite>.json written by run_experiments,
 *           computed exactly as for the benchmark's own records.
 *
 * run.py starts one process per measured run and takes medians.  Every
 * mode prints one JSON object on its last stdout line.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.h"
#include "core/hit_rate_model.h"
#include "core/pdp_policy.h"
#include "core/rd_sampler.h"
#include "core/rdd.h"
#include "hw/perf_counters.h"
#include "model/analytic_model.h"
#include "runner/json.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "service/scenario.h"
#include "service/service_sim.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/single_core_sim.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"
#include "trace/tenant_stream.h"
#include "util/rng.h"

namespace
{

using namespace pdp;
using namespace pdp::runner;
using Clock = std::chrono::steady_clock;

/** The seed at which jobs keep their own seeds, so the run reproduces
 *  run_experiments exactly and the committed digests apply. */
constexpr uint64_t kDefaultSeed = 0;

/**
 * One benchmark workload: a registered suite at fixed settings.  The
 * per-record access counts mirror the run lengths the suite builders in
 * src/runner/suites.cc pass to scaledConfig()/ServiceConfig (warmup +
 * measured, before scaling); the run cross-checks them where a record
 * carries its own count.
 */
struct Workload
{
    const char *name;
    const char *suite;
    double scale;
    uint64_t accesses;
    uint64_t warmup;
    unsigned tenants = 0;
    unsigned churn = 0;

    uint64_t
    accessesPerRecord() const
    {
        return static_cast<uint64_t>(accesses * scale) +
            static_cast<uint64_t>(warmup * scale);
    }
};

const Workload kWorkloads[] = {
    {"paper_roster", "fig10_single_core", 0.05, 3'000'000, 1'000'000},
    {"pd_model", "model_validation", 0.15, 2'000'000, 600'000},
    {"service_churn", "service", 0.15, 6'000'000, 1'000'000, 32, 8},
};

/** Policies whose LLC hooks the probe phase times (the paper roster of
 *  paper_roster plus the SPDP families of pd_model). */
const std::vector<std::string> kProbePolicies = {
    "DIP",   "DRRIP", "EELRU",  "SDP",    "PDP-2",
    "PDP-3", "PDP-8", "SPDP-B", "SPDP-NB",
};

/** Shared-LLC policies of the service suite. */
const std::vector<std::string> kServicePolicies = {
    "LRU", "TA-DRRIP", "UCP", "PDP-2", "PDP-3"};

/** Single-core benchmarks the probe phase decodes for the single-core
 *  workloads: a streaming, a pointer-chasing and a cache-friendly one. */
const std::vector<std::string> kProbeBenchmarks = {
    "470.lbm", "429.mcf", "456.hmmer"};

/** Static PD the SPDP probe cells run at. */
constexpr uint32_t kProbePd = 64;

[[noreturn]] void
die(const std::string &message, int code = 2)
{
    std::cerr << "perfbench: " << message << "\n";
    std::exit(code);
}

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    die("unknown workload '" + name + "'");
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Job seed under workload seed `seed`: unchanged at the default seed,
 *  else a pure mix of both, so cells that shared a seed still do. */
uint64_t
remapSeed(uint64_t jobSeed, uint64_t seed)
{
    if (seed == kDefaultSeed)
        return jobSeed;
    const uint64_t mixed = hashMix64(jobSeed ^ hashMix64(seed));
    return mixed ? mixed : 0x5eedULL;
}

// ---------------------------------------------------------------------------
// Output digests.

uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Json
without(const Json &object, std::initializer_list<const char *> drop)
{
    Json out = Json::object();
    for (const auto &[key, value] : object.members())
        if (std::none_of(drop.begin(), drop.end(),
                         [&](const char *d) { return key == d; }))
            out.set(key, value);
    return out;
}

/** Digest of a deterministic results document, provenance (git, scale)
 *  and inputs (per-record seeds) excluded; per-record digests by key. */
std::string
digestDocument(const Json &doc, std::map<std::string, std::string> *perKey)
{
    Json out = without(doc, {"git", "scale", "jobs"});
    Json jobs = Json::array();
    if (const Json *in = doc.find("jobs")) {
        for (size_t i = 0; i < in->size(); ++i) {
            Json record = without(in->at(i), {"seed"});
            if (perKey)
                (*perKey)[in->at(i).find("key")->asString()] =
                    hex(fnv1a(record.dump()));
            jobs.push(std::move(record));
        }
    }
    out.set("jobs", std::move(jobs));
    return hex(fnv1a(out.dump()));
}

// ---------------------------------------------------------------------------
// Build and host signature.

Json
signature()
{
    Json sig = Json::object();
    sig.set("nproc", std::max(1u, std::thread::hardware_concurrency()));
    sig.set("compiler", PERFBENCH_COMPILER);
    sig.set("build_type", PERFBENCH_BUILD_TYPE);
    sig.set("sanitize", PERFBENCH_SANITIZE);
    sig.set("pdp_telemetry", PDP_TELEMETRY_ENABLED != 0);
    sig.set("pmu", hw::PerfCounterGroup::available());
#ifdef PDP_DCHECK_ENABLED
    sig.set("dcheck", true);
#else
    sig.set("dcheck", false);
#endif
    return sig;
}

/** Timings from a debug-checked or sanitized build measure the checks,
 *  not the simulator: refuse them. */
void
refuseUntimeableBuild()
{
#ifdef PDP_DCHECK_ENABLED
    die("refusing to time a PDP_DCHECK_ENABLED (Debug) build", 3);
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    die("refusing to time a sanitizer build", 3);
#endif
    if (std::strlen(PERFBENCH_SANITIZE) != 0)
        die(std::string("refusing to time a sanitizer build (PDP_SANITIZE=") +
                PERFBENCH_SANITIZE + ")",
            3);
}

// ---------------------------------------------------------------------------
// Suite run (modes run and trace).

SuiteOptions
suiteOptions(const Workload &w, double scale)
{
    SuiteOptions options;
    options.scale = scale;
    options.workers =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    if (w.tenants) {
        options.serviceTenants = w.tenants;
        options.serviceChurn = w.churn;
    }
    return options;
}

/** Structural checks a correct record passes at any seed. */
std::string
recordProblem(const JobRecord &r)
{
    if (r.status != JobStatus::Ok)
        return std::string(toString(r.status)) + " " + r.error;
    if (const auto &s = r.outcome.single) {
        if (s->llcHits + s->llcMisses != s->llcAccesses)
            return "LLC hits + misses != accesses";
        if (s->llcAccesses == 0 || s->cycles == 0 ||
            s->llcBypasses > s->llcMisses)
            return "empty or inconsistent single-core result";
    }
    if (r.outcome.service && r.outcome.service->tenants.empty())
        return "service result without tenants";
    const auto &m = r.outcome.metrics;
    const auto pred = m.find("pred_hit_rate"), sim = m.find("sim_hit_rate"),
               err = m.find("abs_err");
    if (pred != m.end() && sim != m.end() && err != m.end() &&
        std::fabs(std::fabs(pred->second - sim->second) - err->second) >
            1e-12)
        return "abs_err != |pred_hit_rate - sim_hit_rate|";
    return "";
}

/** Closure timings of one traced job (one slot per job: no locking). */
struct JobSpan
{
    Clock::time_point start, end;
    unsigned worker = 0;
};

void
wrapForTracing(Job *job, JobSpan *slot)
{
    struct Stamp
    {
        JobSpan *slot;
        ~Stamp() { slot->end = Clock::now(); }
    };
    if (job->run) {
        job->run = [inner = std::move(job->run), slot](const JobContext &ctx) {
            slot->start = Clock::now();
            slot->worker = ctx.worker;
            Stamp stamp{slot};
            return inner(ctx);
        };
    } else {
        job->runMany = [inner = std::move(job->runMany),
                        slot](const JobContext &ctx) {
            slot->start = Clock::now();
            slot->worker = ctx.worker;
            Stamp stamp{slot};
            return inner(ctx);
        };
    }
}

struct SpanOut
{
    std::ofstream file;
    Clock::time_point origin;
    int next = 0;

    int
    emit(const std::string &name, int parent, Clock::time_point a,
         Clock::time_point b, Json attrs = Json::object())
    {
        Json span = Json::object();
        span.set("id", next);
        span.set("parent", parent);
        span.set("name", name);
        span.set("start_s", seconds(origin, a));
        span.set("end_s", seconds(origin, b));
        for (const auto &[key, value] : attrs.members())
            span.set(key, value);
        file << span.dump() << "\n";
        return next++;
    }
};

int
runSuiteMode(const Workload &w, uint64_t seed, double scale, bool traced,
             const std::string &outDir, Clock::time_point spawn)
{
    const Suite *suite = findSuite(w.suite);
    if (!suite)
        die(std::string("suite '") + w.suite + "' is not registered");
    const SuiteOptions options = suiteOptions(w, scale);

    const Clock::time_point buildStart = Clock::now();
    std::vector<Job> jobs = suite->buildJobs(options);
    const Clock::time_point buildEnd = Clock::now();
    for (Job &job : jobs)
        job.seed = remapSeed(job.seed, seed);
    std::vector<JobSpan> jobSpans(traced ? jobs.size() : 0);
    if (traced)
        for (size_t i = 0; i < jobs.size(); ++i)
            wrapForTracing(&jobs[i], &jobSpans[i]);

    ResultsSink sink(suite->name);
    sink.setScale(options.scale);
    ExecutorOptions eopts;
    eopts.workers = options.workers;
    eopts.reporter = &ProgressReporter::global();
    eopts.onComplete = [&sink](const JobRecord &record) { sink.add(record); };
    ThreadPoolExecutor executor(eopts);
    sink.setWorkers(executor.workers());
    eopts.reporter->beginBatch(suite->name, jobs.size(), executor.workers());

    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    const Clock::time_point submit = Clock::now();
    const std::vector<JobRecord> records = executor.run(jobs);
    const Clock::time_point executed = Clock::now();
    {
        std::ofstream report(outDir + "/REPORT_" + suite->name + ".txt");
        suite->report(report, RecordLookup(records));
    }
    const Clock::time_point reported = Clock::now();
    if (!sink.writeFile(outDir))
        die("cannot write " + outDir + "/" + sink.fileName());
    const Clock::time_point written = Clock::now();
    rusage after{};
    getrusage(RUSAGE_SELF, &after);

    const auto cpu = [](const rusage &r) {
        return r.ru_utime.tv_sec + r.ru_stime.tv_sec +
            1e-6 * (r.ru_utime.tv_usec + r.ru_stime.tv_usec);
    };
    const double wall = seconds(submit, written);

    // Output check material (outside the timed interval).
    std::map<std::string, std::string> perKey;
    const std::string digest = digestDocument(sink.toJson(false), &perKey);
    Json problems = Json::object();
    const uint64_t perRecord = w.accessesPerRecord();
    for (const JobRecord &r : records) {
        const std::string problem = recordProblem(r);
        if (!problem.empty())
            problems.set(r.key, problem);
    }
    if (w.tenants) {
        // Service records count their measured requests themselves.
        const uint64_t measured = static_cast<uint64_t>(w.accesses * scale);
        for (const JobRecord &r : records) {
            if (!r.outcome.service)
                continue;
            uint64_t requests = 0;
            for (const TenantOutcome &t : r.outcome.service->tenants)
                requests += t.requests;
            if (requests < measured)
                problems.set(r.key, "served " + std::to_string(requests) +
                                 " requests, expected >= " +
                                 std::to_string(measured));
        }
    }

    Json out = Json::object();
    out.set("mode", traced ? "trace" : "run");
    out.set("workload", w.name);
    out.set("seed", seed);
    out.set("signature", signature());
    // The suite settings, as run_experiments takes them.
    out.set("suite", w.suite);
    out.set("scale", scale);
    if (w.tenants) {
        out.set("tenants", w.tenants);
        out.set("churn", w.churn);
    }
    out.set("records", static_cast<uint64_t>(records.size()));
    out.set("digest", digest);
    Json keyed = Json::object();
    for (const auto &[key, hash] : perKey)
        keyed.set(key, hash);
    out.set("record_digests", std::move(keyed));
    out.set("problems", std::move(problems));
    out.set("setup_s", seconds(spawn, submit));
    out.set("wall_s", wall);
    out.set("cpu_s", cpu(after) - cpu(before));
    out.set("peak_rss_mb", after.ru_maxrss / 1024.0);
    out.set("accesses_per_s",
            static_cast<double>(perRecord) * records.size() / wall);

    if (traced) {
        SpanOut spans;
        spans.origin = spawn;
        spans.file.open(outDir + "/SPANS_" + std::string(w.name) + ".jsonl");
        spans.emit("runner.build_jobs", -1, buildStart, buildEnd);
        const int exec = spans.emit("runner.execute", -1, submit, executed);
        double busy = 0.0, jobMax = 0.0;
        std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
        for (size_t i = 0; i < jobs.size(); ++i) {
            const JobSpan &s = jobSpans[i];
            const double d = seconds(s.start, s.end);
            busy += d;
            jobMax = std::max(jobMax, d);
            cover.emplace_back(s.start, s.end);
            Json attrs = Json::object();
            attrs.set("job", jobs[i].key);
            attrs.set("worker", s.worker);
            spans.emit("runner.job", exec, s.start, s.end, std::move(attrs));
        }
        spans.emit("runner.report", -1, executed, reported);
        spans.emit("runner.serialize", -1, reported, written);

        // Self time of runner.execute: its span minus the union of its
        // job children.
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        Clock::time_point reach = submit;
        for (const auto &[a, b] : cover) {
            const Clock::time_point from = std::max(a, reach);
            if (b > from) {
                covered += seconds(from, b);
                reach = b;
            }
        }
        const double execute = seconds(submit, executed);
        out.set("runner.build_jobs_s", seconds(buildStart, buildEnd));
        out.set("runner.execute_s", execute);
        out.set("runner.execute_self_s", execute - covered);
        out.set("runner.job_max_s", jobMax);
        out.set("runner.worker_busy_frac",
                busy / (execute * executor.workers()));
        out.set("runner.report_s", seconds(executed, reported));
        out.set("runner.serialize_s", seconds(reported, written));
    }
    std::cout << out.dump() << std::endl;
    return 0;
}

// ---------------------------------------------------------------------------
// Layer probes (mode probe).

/** The service suite's open-loop scheduler over its initial tenants
 *  (no churn), as one generator: earliest Poisson arrival first, ties to
 *  the lowest tenant, streams seeded exactly as service_sim.cc seeds
 *  them.  reset() rewinds the streams in place, keeping their Zipf
 *  tables. */
class InitialTenantStream : public AccessGenerator
{
  public:
    InitialTenantStream(const std::vector<TenantSpec> &tenants, uint64_t seed)
        : name_("service/initial")
    {
        for (size_t spec = 0; spec < tenants.size(); ++spec) {
            const TenantSpec &t = tenants[spec];
            if (t.joinAt != 0)
                continue;
            const uint64_t streamSeed =
                hashMix64(seed ^ (0x7e4a7c15u + 2u * spec));
            const PoissonProcess clock(hashMix64(streamSeed ^ 0xc10cc10cu),
                                       t.arrivalRate);
            Lane lane{std::make_unique<TenantStreamGenerator>(
                          t.name, streamSeed, t.footprintLines, t.zipfAlpha,
                          (static_cast<uint64_t>(spec) + 1) << 32, t.meanGap,
                          t.writeFrac),
                      clock, clock};
            lane.gen->setThreadId(static_cast<uint8_t>(lanes_.size()));
            lanes_.push_back(std::move(lane));
        }
    }

    Access
    next() override
    {
        size_t pick = 0;
        for (size_t i = 1; i < lanes_.size(); ++i)
            if (lanes_[i].clock.nextArrival() <
                lanes_[pick].clock.nextArrival())
                pick = i;
        const Access access = lanes_[pick].gen->next();
        lanes_[pick].clock.advance();
        return access;
    }

    void
    reset() override
    {
        for (Lane &lane : lanes_) {
            lane.gen->reset();
            lane.clock = lane.start;
        }
    }

    const std::string &name() const override { return name_; }
    size_t lanes() const { return lanes_.size(); }
    TenantStreamGenerator &lane(size_t i) { return *lanes_[i].gen; }

  private:
    struct Lane
    {
        std::unique_ptr<TenantStreamGenerator> gen;
        PoissonProcess start, clock;
    };
    std::string name_;
    std::vector<Lane> lanes_;
};

/** Records every LLC op (hit, fill or bypass) with its context. */
class OpCapture final : public CacheObserver
{
  public:
    std::vector<AccessContext> ops;

    void onHit(const AccessContext &ctx, int) override { ops.push_back(ctx); }
    void
    onInsert(const AccessContext &ctx, int) override
    {
        ops.push_back(ctx);
    }
    void onEvict(const AccessContext &, int, uint64_t, bool) override {}
    void onBypass(const AccessContext &ctx) override { ops.push_back(ctx); }
};

std::unique_ptr<ReplacementPolicy>
probePolicy(const std::string &name)
{
    if (name == "SPDP-B")
        return makeSpdpB(kProbePd);
    if (name == "SPDP-NB")
        return makeSpdpNb(kProbePd);
    return makePolicy(name);
}

/** Fastest of `reps` timings of `body` (seconds), each after an untimed
 *  `prepare` that builds what the timed call takes (generators, caches):
 *  host noise only ever adds time, so the minimum is the steadiest
 *  estimate of a layer's cost. */
double
fastestTime(int reps, const std::function<void()> &prepare,
            const std::function<void()> &body)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        prepare();
        const Clock::time_point a = Clock::now();
        body();
        t.push_back(seconds(a, Clock::now()));
    }
    std::sort(t.begin(), t.end());
    return t.front();
}

double
fastestTime(int reps, const std::function<void()> &body)
{
    return fastestTime(reps, [] {}, body);
}

/** One probed input stream of the workload. */
struct ProbeInput
{
    std::string label;
    std::function<GeneratorPtr()> make;
    HierarchyConfig hierarchy;
    /** Whether a full-size probe's dynamic PDP cells must recompute
     *  their PD at least once (true for the single-core benchmarks). */
    bool recomputes = false;
};

/** Per-metric sums over probe inputs (averaged at the end). */
using MetricSums = std::map<std::string, double>;

/** Probe run lengths, fastest of 3: long enough that every probed
 *  dynamic PDP cell recomputes its PD (the first recompute comes after
 *  192K LLC demand accesses).  A --scale below the workload's shrinks
 *  them in proportion and times once. */
struct ProbeSizes
{
    uint64_t warmup = 100'000;
    uint64_t accesses = 300'000;
    int reps = 3;
    bool full = true;
};

ProbeSizes
probeSizes(const Workload &w, double scale)
{
    ProbeSizes sz;
    const double factor = scale / w.scale;
    if (factor < 1.0) {
        sz.warmup = static_cast<uint64_t>(sz.warmup * factor);
        sz.accesses =
            std::max<uint64_t>(1, static_cast<uint64_t>(sz.accesses * factor));
        sz.reps = 1;
        sz.full = false;
    }
    return sz;
}

void
probeInput(const ProbeInput &in, const ProbeSizes &sz, MetricSums *m,
           MetricSums *cellByPolicy, MetricSums *layersByPolicy,
           std::vector<std::string> *problems, SpanOut *spans)
{
    const uint64_t total = sz.warmup + sz.accesses;
    const Clock::time_point inputStart = Clock::now();
    const double perAccess = 1e9 / static_cast<double>(total);

    // One generator serves every timed run of the input, rewound before
    // each rather than rebuilt (the service input holds 32 Zipf tables).
    const GeneratorPtr gen = in.make();
    const auto rewind = [&] { gen->reset(); };

    // trace: generator decode.
    std::vector<Access> stream(total);
    const double decode = fastestTime(
        sz.reps, rewind,
        [&] {
            for (uint64_t i = 0; i < total; ++i)
                stream[i] = gen->next();
        });
    (*m)["trace.next_ns"] += decode * perAccess;

    // Capture the LLC op stream once (untimed) through a real hierarchy.
    OpCapture capture;
    std::vector<HitLevel> levels(sz.accesses);
    uint64_t l2Hits = 0, capturedHits = 0;
    size_t warmOps = 0;
    {
        Hierarchy h(in.hierarchy, makePolicy("LRU"));
        h.llc().setObserver(&capture);
        for (uint64_t i = 0; i < sz.warmup; ++i)
            l2Hits += h.access(stream[i]).level == HitLevel::L2;
        warmOps = capture.ops.size();
        h.resetStats();
        for (uint64_t i = 0; i < sz.accesses; ++i) {
            levels[i] = h.access(stream[sz.warmup + i]).level;
            l2Hits += levels[i] == HitLevel::L2;
        }
        capturedHits = h.llc().stats().hits;
        h.llc().setObserver(nullptr);
    }
    const std::vector<AccessContext> &ops = capture.ops;
    const double opsPerAccess = static_cast<double>(ops.size()) / total;
    (*m)["cache.llc_ops_per_access"] += opsPerAccess;
    (*m)["cache.l2_filter_frac"] += static_cast<double>(l2Hits) / total;

    // cache: the L2 walk (one LRU L2 per hardware thread, as Hierarchy).
    std::vector<std::unique_ptr<Cache>> l2s;
    const auto freshL2s = [&] {
        l2s.clear();
        for (unsigned t = 0; t < in.hierarchy.numThreads; ++t)
            l2s.push_back(std::make_unique<Cache>(
                in.hierarchy.l2, std::make_unique<LruPolicy>()));
    };
    const double l2 = fastestTime(sz.reps, freshL2s, [&] {
        for (const Access &a : stream) {
            Cache &c = *l2s[a.threadId < l2s.size() ? a.threadId : 0];
            AccessContext ctx;
            ctx.lineAddr = a.lineAddr;
            ctx.pc = a.pc;
            ctx.threadId = a.threadId;
            ctx.isWrite = a.isWrite;
            ctx.set = c.setIndex(ctx.lineAddr);
            c.access(ctx);
        }
    });
    l2s.clear();
    (*m)["cache.l2_ns"] += l2 * perAccess;

    // cache/policies: replay the op stream into a bare LLC per policy;
    // the measured-phase demand hits must match the cell run's.
    std::map<std::string, uint64_t> replayHits;
    std::map<std::string, double> llcNs;
    const auto replay = [&](const std::string &policy) {
        uint64_t hits = 0;
        std::unique_ptr<Cache> llc;
        const double t = fastestTime(
            sz.reps,
            [&] {
                llc.reset();
                llc = std::make_unique<Cache>(in.hierarchy.llc,
                                              probePolicy(policy));
            },
            [&] {
                for (size_t i = 0; i < warmOps; ++i)
                    llc->access(ops[i]);
                llc->resetStats();
                for (size_t i = warmOps; i < ops.size(); ++i)
                    llc->access(ops[i]);
                hits = llc->stats().hits;
            });
        replayHits[policy] = hits;
        return t * 1e9 / static_cast<double>(ops.size());
    };
    (*m)["cache.llc_probe_ns"] += replay("LRU");
    if (replayHits["LRU"] != capturedHits)
        problems->push_back(in.label + ": LRU replay hits " +
                            std::to_string(replayHits["LRU"]) +
                            " != captured " + std::to_string(capturedHits));
    for (const std::string &p : kProbePolicies) {
        llcNs[p] = replay(p);
        (*m)["policies." + p + ".llc_ns"] += llcNs[p];
    }

    // sim: the timing replay over the measured accesses.
    const double timing = fastestTime(sz.reps, [&] {
        TimingModel tm;
        for (uint64_t i = 0; i < sz.accesses; ++i)
            tm.onAccess(stream[sz.warmup + i].instrGap, levels[i]);
        if (tm.instructions() == 0)
            problems->push_back(in.label + ": empty timing replay");
    });
    const double timingNs = timing * 1e9 / static_cast<double>(sz.accesses);
    (*m)["sim.timing_ns"] += timingNs;

    // core: the RD sampler on the LLC op stream, then the best-PD search
    // over what it measured.
    RdCounterArray rdd;
    std::unique_ptr<RdSampler> rdSampler;
    const auto freshSampler = [&] {
        rdSampler = std::make_unique<RdSampler>(RdSamplerParams{},
                                                in.hierarchy.llc.numSets());
        rdd = RdCounterArray();
    };
    const double sampler = fastestTime(sz.reps, freshSampler, [&] {
        for (const AccessContext &op : ops) {
            const RdObservation o = rdSampler->observe(op.set, op.lineAddr);
            if (o.inserted)
                rdd.recordAccess();
            if (o.rd)
                rdd.recordHit(*o.rd);
        }
    });
    (*m)["core.rd_sampler_ns"] +=
        sampler * 1e9 / static_cast<double>(ops.size());
    const HitRateModel hitModel;
    uint32_t pdSink = 0;
    constexpr int kBestPdCalls = 200;
    const double bestPd = fastestTime(sz.reps, [&] {
        pdSink = 0;
        for (int i = 0; i < kBestPdCalls; ++i)
            pdSink += hitModel.bestPd(rdd);
    });
    (*m)["core.best_pd_us"] += bestPd * 1e6 / kBestPdCalls;

    // sim: one end-to-end cell per policy, and the layer-sum check.
    SimConfig cfg;
    cfg.warmup = sz.warmup;
    cfg.accesses = sz.accesses;
    cfg.hierarchy = in.hierarchy;
    double cellSum = 0.0, residualSum = 0.0;
    std::map<std::string, uint64_t> cellHits;
    for (const std::string &p : kProbePolicies) {
        SimResult r;
        size_t recomputes = 0;
        bool dynamicPdp = false;
        std::unique_ptr<Hierarchy> h;
        const double t = fastestTime(
            sz.reps,
            [&] {
                h.reset();
                gen->reset();
                h = std::make_unique<Hierarchy>(in.hierarchy, probePolicy(p));
            },
            [&] { r = runSingleCore(*gen, *h, cfg); });
        if (const auto *pdp =
                dynamic_cast<const PdpPolicy *>(&h->llc().policy())) {
            dynamicPdp = pdp->params().dynamic;
            recomputes = pdp->pdHistory().size();
        }
        if (dynamicPdp && in.recomputes && sz.full && recomputes == 0)
            problems->push_back(in.label + ": " + p +
                                " never recomputed its PD");
        cellHits[p] = r.llcHits;
        if (r.llcHits != replayHits[p])
            problems->push_back(in.label + ": " + p + " cell hits " +
                                std::to_string(r.llcHits) + " != replay " +
                                std::to_string(replayHits[p]));
        const double cell = t * perAccess;
        const double layers = decode * perAccess + l2 * perAccess +
            opsPerAccess * llcNs[p] +
            timingNs * static_cast<double>(sz.accesses) / total;
        const double residual = cell - layers;
        cellSum += cell;
        residualSum += residual;
        (*cellByPolicy)[p] += cell;
        (*layersByPolicy)[p] += layers;
        Json attrs = Json::object();
        attrs.set("input", in.label);
        attrs.set("policy", p);
        attrs.set("cell_ns", cell);
        attrs.set("layers_ns", layers);
        attrs.set("residual_frac", residual / cell);
        if (dynamicPdp)
            attrs.set("pd_recomputes", static_cast<uint64_t>(recomputes));
        const Clock::time_point now = Clock::now();
        spans->emit("sim.cell", -1, now, now, std::move(attrs));
    }
    (*m)["sim.cell_ns"] += cellSum / kProbePolicies.size();
    (*m)["sim.unattributed_ns"] += residualSum / kProbePolicies.size();

    // sim: the lockstep driver over the same cells, one decode.
    std::vector<std::function<std::unique_ptr<ReplacementPolicy>()>> factories;
    for (const std::string &p : kProbePolicies)
        factories.push_back([p] { return probePolicy(p); });
    std::vector<SimResult> lockstep;
    const double lock = fastestTime(
        sz.reps, rewind,
        [&] { lockstep = runSingleCoreLockstep(*gen, cfg, factories, 1); });
    for (size_t c = 0; c < kProbePolicies.size(); ++c)
        if (lockstep[c].llcHits != cellHits[kProbePolicies[c]])
            problems->push_back(in.label + ": lockstep " +
                                kProbePolicies[c] + " hits differ");
    (*m)["sim.lockstep_cell_ns"] +=
        lock * perAccess / static_cast<double>(kProbePolicies.size());

    // model: fingerprint the stream, then predict the validation grid.
    FingerprintOptions fopt;
    fopt.warmup = sz.warmup;
    fopt.accesses = sz.accesses;
    RddFingerprint fp;
    const double fingerprint = fastestTime(
        sz.reps, rewind,
        [&] { fp = fingerprintStream(*gen, fopt); });
    (*m)["model.fingerprint_ms"] += fingerprint * 1e3;
    const model::AnalyticModel estimator{model::ModelConfig{}};
    double predSink = 0.0;
    int predictions = 0;
    const double predict = fastestTime(sz.reps, [&] {
        predictions = 0;
        for (bool bypass : {false, true})
            for (uint32_t pd : {16u, 32u, 64u, 128u, 256u}) {
                predSink += estimator.predictPdpAt(fp, pd, bypass).hitRate;
                ++predictions;
            }
    });
    (*m)["model.predict_us"] += predict * 1e6 / predictions;
    if (!std::isfinite(predSink))
        problems->push_back(in.label + ": model predictions not finite");

    Json attrs = Json::object();
    attrs.set("input", in.label);
    attrs.set("best_pd", pdSink / kBestPdCalls);
    spans->emit("probe.input", -1, inputStart, Clock::now(), std::move(attrs));
}

/** The service workload's scenario and config at `scale`. */
std::vector<TenantSpec>
serviceScenario(const Workload &svc, double scale, ServiceConfig *config,
                uint64_t *seed, uint64_t workloadSeed)
{
    config->slots = svc.tenants;
    config->hierarchy.llc = CacheConfig::paperLlc(4);
    config->accesses = svc.accesses;
    config->warmup = svc.warmup;
    *config = config->scaled(scale);
    ServiceScenarioParams params;
    params.tenants = svc.tenants;
    params.churn = svc.churn;
    params.accesses = config->accesses;
    const uint64_t tagSeed = seedFor("service/t" + std::to_string(svc.tenants) +
                                     "c" + std::to_string(svc.churn));
    *seed = remapSeed(tagSeed, workloadSeed);
    return buildServiceScenario(params, tagSeed);
}

int
probeMode(const Workload &w, uint64_t seed, const ProbeSizes &sz,
          const std::string &outDir, Clock::time_point spawn)
{
    const Workload &svc = findWorkload("service_churn");
    SpanOut spans;
    spans.origin = spawn;
    spans.file.open(outDir + "/PROBE_SPANS_" + std::string(w.name) + ".jsonl");

    std::vector<ProbeInput> inputs;
    if (w.tenants) {
        ServiceConfig config;
        uint64_t streamSeed = 0;
        const std::vector<TenantSpec> tenants =
            serviceScenario(w, w.scale, &config, &streamSeed, seed);
        inputs.push_back({"service/initial-tenants",
                          [tenants, streamSeed]() -> GeneratorPtr {
                              return std::make_unique<InitialTenantStream>(
                                  tenants, streamSeed);
                          },
                          config.hierarchy});
        inputs.back().hierarchy.numThreads = config.slots;
    } else {
        for (const std::string &bench : kProbeBenchmarks)
            inputs.push_back({bench,
                              [bench, s = remapSeed(seedFor(bench), seed)] {
                                  return SpecSuite::make(bench, s);
                              },
                              HierarchyConfig{}, true});
    }

    MetricSums m, cellByPolicy, layersByPolicy;
    std::vector<std::string> problems;
    for (const ProbeInput &in : inputs)
        probeInput(in, sz, &m, &cellByPolicy, &layersByPolicy, &problems,
                   &spans);
    for (auto &[name, value] : m)
        value /= static_cast<double>(inputs.size());
    // Per policy cell over all probed inputs: run.py's layer-sum check.
    Json layerSum = Json::object();
    for (const std::string &p : kProbePolicies) {
        Json sums = Json::object();
        sums.set("cell_ns", cellByPolicy[p]);
        sums.set("layers_ns", layersByPolicy[p]);
        layerSum.set(p, std::move(sums));
    }

    // service: the shared-LLC runs per request, and the tenant decode,
    // on the service_churn scenario at the workload seed.
    {
        const Clock::time_point start = Clock::now();
        ServiceConfig config;
        uint64_t streamSeed = 0;
        const double probeScale =
            static_cast<double>(sz.warmup + sz.accesses) /
            static_cast<double>(svc.accesses + svc.warmup);
        const std::vector<TenantSpec> tenants =
            serviceScenario(svc, probeScale, &config, &streamSeed, seed);
        const double requests =
            static_cast<double>(config.accesses + config.warmup);
        for (const std::string &p : kServicePolicies) {
            const double t = fastestTime(sz.reps, [&] {
                const ServiceResult r =
                    runService(tenants, p, config, streamSeed);
                if (r.tenants.empty())
                    problems.push_back("service " + p + ": no tenants");
            });
            m["service." + p + ".request_ns"] = t * 1e9 / requests;
        }

        // InitialTenantStream restates runService's join seeding and
        // earliest-arrival step.  A churn-free copy of the scenario must
        // give the same LLC traffic through both, or the service input
        // probed above is not the stream the service suite serves.
        std::vector<TenantSpec> initial;
        for (const TenantSpec &t : tenants)
            if (t.joinAt == 0) {
                initial.push_back(t);
                initial.back().leaveAt = 0;
            }
        const ServiceResult served =
            runService(initial, "LRU", config, streamSeed);
        uint64_t servedAccesses = 0, servedHits = 0;
        for (const TenantOutcome &t : served.tenants) {
            servedAccesses += t.llcAccesses;
            servedHits += t.llcHits;
        }
        SimConfig cfg;
        cfg.warmup = config.warmup;
        cfg.accesses = config.accesses;
        cfg.hierarchy = config.hierarchy;
        cfg.hierarchy.numThreads = config.slots;
        InitialTenantStream merged(tenants, streamSeed);
        Hierarchy h(cfg.hierarchy, makePolicy("LRU"));
        const SimResult cell = runSingleCore(merged, h, cfg);
        if (cell.llcAccesses != servedAccesses || cell.llcHits != servedHits)
            problems.push_back(
                "initial-tenant stream drifted from runService: LLC " +
                std::to_string(cell.llcHits) + "/" +
                std::to_string(cell.llcAccesses) + " hits/accesses vs " +
                std::to_string(servedHits) + "/" +
                std::to_string(servedAccesses));
        InitialTenantStream lanes(tenants, streamSeed);
        constexpr uint64_t kPerLane = 20'000;
        uint64_t addrSink = 0;
        const double next = fastestTime(sz.reps, [&] {
            for (size_t l = 0; l < lanes.lanes(); ++l)
                for (uint64_t i = 0; i < kPerLane; ++i)
                    addrSink += lanes.lane(l).next().lineAddr;
        });
        if (addrSink == 0)
            problems.push_back("tenant streams produced no addresses");
        m["trace.tenant_next_ns"] =
            next * 1e9 / static_cast<double>(kPerLane * lanes.lanes());
        spans.emit("probe.service", -1, start, Clock::now());
    }

    Json out = Json::object();
    out.set("mode", "probe");
    out.set("workload", w.name);
    out.set("seed", seed);
    out.set("signature", signature());
    out.set("layer_sum", std::move(layerSum));
    Json metrics = Json::object();
    for (const auto &[name, value] : m)
        metrics.set(name, value);
    out.set("metrics", std::move(metrics));
    Json plist = Json::array();
    for (const std::string &p : problems)
        plist.push(p);
    out.set("problems", std::move(plist));
    std::cout << out.dump() << std::endl;
    return 0;
}

int
digestMode(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error;
    const std::optional<Json> doc = Json::parse(text.str(), &error);
    if (!doc)
        die(path + ": " + error);
    Json out = Json::object();
    out.set("digest", digestDocument(*doc, nullptr));
    std::cout << out.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            die(std::string("unexpected argument '") + argv[i] + "'");
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0)
        die("arguments come in --name value pairs");
    const auto arg = [&](const char *name, const char *fallback) {
        const auto it = args.find(name);
        if (it != args.end())
            return it->second;
        if (!fallback)
            die(std::string("missing --") + name);
        return std::string(fallback);
    };
    const auto integer = [&](const char *name, const char *fallback) {
        const std::string text = arg(name, fallback);
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
        if (text.empty() || text[0] == '-' || *end != '\0' || errno)
            die(std::string("--") + name + " wants a whole number, got '" +
                text + "'");
        return static_cast<uint64_t>(v);
    };
    const auto number = [&](const char *name, const char *fallback) {
        const std::string text = arg(name, fallback);
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0)
            die(std::string("--") + name +
                " wants a non-negative number, got '" + text + "'");
        return v;
    };

    const std::string mode = arg("mode", nullptr);
    if (mode == "digest")
        return digestMode(arg("file", nullptr));

    refuseUntimeableBuild();
    const Workload &w = findWorkload(arg("workload", nullptr));
    const uint64_t seed = integer("seed", "0");
    const std::string outDir = arg("out", ".");
    // run.py passes its CLOCK_MONOTONIC reading taken just before it
    // started this process; steady_clock reads the same clock on Linux.
    const Clock::time_point spawn = args.count("spawn-ns")
        ? Clock::time_point(std::chrono::nanoseconds(
              static_cast<int64_t>(integer("spawn-ns", nullptr))))
        : Clock::now();
    const double scale = number("scale", std::to_string(w.scale).c_str());

    if (mode == "run" || mode == "trace")
        return runSuiteMode(w, seed, scale, mode == "trace", outDir, spawn);
    if (mode == "probe")
        return probeMode(w, seed, probeSizes(w, scale), outDir, spawn);
    die("unknown --mode '" + mode + "'");
}
