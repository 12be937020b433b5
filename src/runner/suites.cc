#include "runner/suites.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <ostream>
#include <thread>

#include "cache/hierarchy.h"
#include "cache/occupancy_tracker.h"
#include "check/flight_recorder.h"
#include "cache/reference_cache.h"
#include "core/hit_rate_model.h"
#include "core/pdp_policy.h"
#include "core/rdd.h"
#include "model/analytic_model.h"
#include "policies/rrip.h"
#include "runner/thread_pool.h"
#include "service/scenario.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "telemetry/metrics.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"
#include "trace/workload.h"
#include "util/stats.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

RecordLookup::RecordLookup(const std::vector<JobRecord> &records)
{
    for (const JobRecord &record : records)
        byKey_.emplace(record.key, &record);
}

const JobRecord *
RecordLookup::find(const std::string &key) const
{
    const auto it = byKey_.find(key);
    return it == byKey_.end() ? nullptr : it->second;
}

const SimResult *
RecordLookup::single(const std::string &key) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed ||
        !record->outcome.single)
        return nullptr;
    return &*record->outcome.single;
}

const MultiCoreResult *
RecordLookup::multi(const std::string &key) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed ||
        !record->outcome.multi)
        return nullptr;
    return &*record->outcome.multi;
}

const ServiceResult *
RecordLookup::service(const std::string &key) const
{
    const JobRecord *record = find(key);
    if (!record || record->status == JobStatus::Failed ||
        !record->outcome.service)
        return nullptr;
    return &*record->outcome.service;
}

std::vector<std::string>
RecordLookup::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(byKey_.size());
    for (const auto &[key, record] : byKey_)
        keys.push_back(key);
    return keys;
}

Job
singleCoreJob(std::string key, std::string benchmark,
              std::function<std::unique_ptr<ReplacementPolicy>()> makePol,
              const SimConfig &config)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(benchmark);
    job.run = [benchmark = std::move(benchmark), makePol = std::move(makePol),
               config](const JobContext &ctx) {
        auto gen = SpecSuite::make(benchmark, ctx.seed);
        Hierarchy hierarchy(config.hierarchy, makePol());
        JobOutcome outcome;
        outcome.single = runSingleCore(*gen, hierarchy, config);
        return outcome;
    };
    return job;
}

Job
singleCoreJob(std::string key, std::string benchmark, std::string policySpec,
              const SimConfig &config)
{
    return singleCoreJob(
        std::move(key), std::move(benchmark),
        [policySpec = std::move(policySpec)] { return makePolicy(policySpec); },
        config);
}

Job
multiCoreJob(std::string key, WorkloadSpec workload, std::string policySpec,
             const MultiCoreConfig &config)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(workload.label());
    job.run = [workload = std::move(workload),
               policySpec = std::move(policySpec),
               config](const JobContext &) {
        JobOutcome outcome;
        outcome.multi = runMultiCore(workload, policySpec, config);
        return outcome;
    };
    return job;
}

Job
serviceJob(std::string key, std::vector<TenantSpec> tenants,
           std::string policySpec, const ServiceConfig &config,
           uint64_t seed)
{
    Job job;
    job.key = std::move(key);
    job.seed = seed;
    job.run = [tenants = std::move(tenants),
               policySpec = std::move(policySpec),
               config](const JobContext &ctx) {
        JobOutcome outcome;
        outcome.service = runService(tenants, policySpec, config, ctx.seed);
        return outcome;
    };
    return job;
}

Job
lockstepSweepJob(std::string key, std::string benchmark,
                 std::vector<PolicyCell> cells, const SimConfig &config,
                 bool prefetcher)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(benchmark);
    job.wide = true;
    job.runMany = [benchmark = std::move(benchmark), cells = std::move(cells),
                   config, prefetcher](const JobContext &ctx) {
        auto gen = SpecSuite::make(benchmark, ctx.seed);
        std::vector<SimResult> results;
        std::vector<std::map<std::string, double>> extras(cells.size());
        // The front end and LLCs go before the records are built: kept
        // alive across the record copies they raise fig10's peak RSS by
        // ~1 MB (the next group's LLCs no longer fit the freed block).
        {
            PrivateLevel front(config.hierarchy.l2,
                               config.hierarchy.numThreads);
            if (prefetcher)
                front.attachPrefetcher(std::make_unique<StreamPrefetcher>());
            std::vector<std::unique_ptr<Cache>> owned;
            std::vector<Cache *> llcs;
            std::vector<LaneReader> readers;
            for (const PolicyCell &cell : cells) {
                owned.push_back(std::make_unique<Cache>(config.hierarchy.llc,
                                                        cell.makePolicy()));
                llcs.push_back(owned.back().get());
                readers.push_back(cell.probe ? cell.probe(*owned.back())
                                             : nullptr);
            }
            results = runSingleCoreLockstep(*gen, front, llcs, config,
                                            ctx.threads);
            for (size_t c = 0; c < cells.size(); ++c)
                if (readers[c])
                    readers[c](extras[c]);
        }
        std::vector<KeyedOutcome> outcomes(results.size());
        for (size_t c = 0; c < results.size(); ++c) {
            outcomes[c].key = cells[c].key;
            outcomes[c].outcome.single = std::move(results[c]);
            outcomes[c].outcome.metrics = std::move(extras[c]);
        }
        return outcomes;
    };
    return job;
}

namespace
{

/** The per-run telemetry knobs a suite's options ask for. */
telemetry::TelemetryConfig
telemetryConfig(const SuiteOptions &options)
{
    telemetry::TelemetryConfig config;
    config.enabled =
        options.telemetry || options.trace || options.obsSampleRate > 0.0;
    config.traceEvents = options.trace || options.obsSampleRate > 0.0;
    config.spanSampleRate = options.obsSampleRate;
    config.perfCounters = options.perfCounters;
    return config;
}

SimConfig
scaledConfig(const SuiteOptions &options, uint64_t accesses = 3'000'000,
             uint64_t warmup = 1'000'000)
{
    SimConfig config;
    config.accesses = accesses;
    config.warmup = warmup;
    config.telemetry = telemetryConfig(options);
    return config.scaled(options.scale);
}

/** Emit one benchmark's sweep cells as one wide lockstep group job (key
 *  "<prefix>lockstep"), observers in its lanes.  A --filter naming cells
 *  keeps just those, in a group whose key carries the filter.  Hardware
 *  counters count only the thread that opened them, so --perf-counters
 *  gives each cell a singleCoreJob (the one-lane engine).  Record keys
 *  and seeds, and so the deterministic dumps, match every way. */
void
emitCells(std::vector<Job> *jobs, const SuiteOptions &options,
          const std::string &prefix, const std::string &bench,
          std::vector<PolicyCell> cells, const SimConfig &config)
{
    if (options.perfCounters) {
        for (PolicyCell &cell : cells)
            jobs->push_back(singleCoreJob(std::move(cell.key), bench,
                                          std::move(cell.makePolicy),
                                          config));
        return;
    }
    std::string group = prefix + "lockstep";
    if (group.find(options.filter) == std::string::npos) {
        std::erase_if(cells, [&](const PolicyCell &cell) {
            return cell.key.find(options.filter) == std::string::npos;
        });
        group += "[" + options.filter + "]";
    }
    if (!cells.empty())
        jobs->push_back(
            lockstepSweepJob(group, bench, std::move(cells), config));
}

/** Miss-minimizing point of an already-run static-PD grid (strictly
 *  smaller wins, so ties keep the earliest grid point — the same
 *  tie-break as pdp::bestStaticPd). */
struct GridBest
{
    uint32_t pd = 0;
    const SimResult *result = nullptr;
};

GridBest
bestOverPdGrid(const RecordLookup &records, const std::string &prefix)
{
    GridBest best;
    for (uint32_t pd : defaultPdGrid()) {
        const SimResult *r = records.single(prefix + std::to_string(pd));
        if (!r)
            continue;
        if (!best.result || r->llcMisses < best.result->llcMisses) {
            best.pd = pd;
            best.result = r;
        }
    }
    return best;
}

// ---------------------------------------------------------------------------
// fig10_single_core — Fig. 10: single-core policies vs DIP.

const std::vector<std::string> kFig10Policies = {
    "DRRIP", "EELRU", "SDP", "PDP-2", "PDP-3", "PDP-8",
};

std::vector<Job>
buildFig10(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig10/" + bench + "/";
        std::vector<PolicyCell> cells;
        cells.emplace_back(prefix + "DIP",
                           [] { return makePolicy("DIP"); });
        for (const std::string &policy : kFig10Policies)
            cells.emplace_back(prefix + policy, [policy] {
                return makePolicy(policy);
            });
        for (uint32_t pd : defaultPdGrid())
            cells.emplace_back(
                prefix + "SPDP-B:" + std::to_string(pd),
                [pd] { return makeSpdpB(pd); });
        emitCells(&jobs, options, prefix, bench, std::move(cells), config);
    }
    return jobs;
}

void
reportFig10(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 10: single-core policies (normalized to DIP) "
           "====\n\n";

    Table miss_table([] {
        std::vector<std::string> h = {"benchmark"};
        for (const auto &p : kFig10Policies)
            h.push_back(p);
        h.push_back("SPDP-B");
        return h;
    }());
    Table ipc_table = miss_table;
    Table bypass_table({"benchmark", "SDP", "PDP-2", "PDP-3", "PDP-8",
                        "SPDP-B"});

    std::map<std::string, Accumulator> miss_avg, ipc_avg, bypass_avg;

    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig10/" + bench + "/";
        const bool in_average = bench != "483.xalancbmk.1" &&
                                bench != "483.xalancbmk.2";

        const SimResult *dip = records.single(prefix + "DIP");
        if (!dip) {
            out << "(skipping " << bench << ": DIP baseline missing)\n";
            continue;
        }

        std::vector<std::string> miss_row = {bench};
        std::vector<std::string> ipc_row = {bench};
        std::vector<std::string> bypass_row = {bench};

        auto account = [&](const std::string &policy, const SimResult *r,
                           bool track_bypass) {
            if (!r) {
                miss_row.push_back("n/a");
                ipc_row.push_back("n/a");
                if (track_bypass)
                    bypass_row.push_back("n/a");
                return;
            }
            const double miss_red = dip->llcMisses
                ? 1.0 - static_cast<double>(r->llcMisses) / dip->llcMisses
                : 0.0;
            const double ipc_imp =
                dip->ipc > 0 ? r->ipc / dip->ipc - 1.0 : 0.0;
            miss_row.push_back(Table::pct(miss_red));
            ipc_row.push_back(Table::pct(ipc_imp));
            if (track_bypass)
                bypass_row.push_back(Table::upct(r->bypassFraction));
            if (in_average) {
                miss_avg[policy].add(miss_red);
                ipc_avg[policy].add(ipc_imp);
                if (track_bypass)
                    bypass_avg[policy].add(r->bypassFraction);
            }
        };

        for (const std::string &policy : kFig10Policies)
            account(policy, records.single(prefix + policy),
                    policy == "SDP" || policy.rfind("PDP", 0) == 0);

        // SPDP-B with the best static PD for this benchmark.
        const GridBest spdp = bestOverPdGrid(records, prefix + "SPDP-B:");
        account("SPDP-B", spdp.result, true);
        if (spdp.result)
            miss_row.back() += " (pd=" + std::to_string(spdp.pd) + ")";

        miss_table.addRow(miss_row);
        ipc_table.addRow(ipc_row);
        bypass_table.addRow(bypass_row);
    }

    auto add_average = [&](Table &table,
                           std::map<std::string, Accumulator> &avg,
                           const std::vector<std::string> &cols) {
        std::vector<std::string> row = {"AVERAGE"};
        for (const auto &c : cols)
            row.push_back(Table::pct(avg[c].mean()));
        table.addRow(row);
    };

    std::vector<std::string> all_cols = kFig10Policies;
    all_cols.push_back("SPDP-B");

    out << "--- (a) miss reduction vs DIP ---\n";
    add_average(miss_table, miss_avg, all_cols);
    miss_table.print(out);

    out << "\n--- (b) IPC improvement vs DIP ---\n";
    add_average(ipc_table, ipc_avg, all_cols);
    ipc_table.print(out);

    out << "\n--- (c) bypass fraction of LLC accesses ---\n";
    add_average(bypass_table, bypass_avg,
                {"SDP", "PDP-2", "PDP-3", "PDP-8", "SPDP-B"});
    bypass_table.print(out);

    out << "\nPaper reference (averages over the suite): DRRIP +1.5% "
           "IPC, SDP +1.6%, PDP-2 +2.9%, PDP-3 +4.2%, EELRU "
           "negative; bypass ~40%.\n";
}

// ---------------------------------------------------------------------------
// fig4_static_pdp — Fig. 4: DRRIP(best eps) vs static PDP.

const std::vector<unsigned> kFig4EpsDenoms = {4, 8, 16, 32, 64, 128};

std::vector<Job>
buildFig4(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig4/" + bench + "/";
        std::vector<PolicyCell> cells;
        for (unsigned denom : kFig4EpsDenoms)
            cells.emplace_back(
                prefix + "DRRIP-eps:" + std::to_string(denom),
                [denom] { return makeDrrip(1.0 / denom); });
        for (uint32_t pd : defaultPdGrid()) {
            cells.emplace_back(prefix + "SPDP-NB:" + std::to_string(pd),
                               [pd] { return makeSpdpNb(pd); });
            cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                               [pd] { return makeSpdpB(pd); });
        }
        emitCells(&jobs, options, prefix, bench, std::move(cells), config);
    }
    return jobs;
}

void
reportFig4(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 4: DRRIP(best eps) vs static PDP, miss "
           "reduction over DRRIP(eps=1/32) ====\n\n";

    Table table({"benchmark", "DRRIP best-eps", "SPDP-NB", "SPDP-B",
                 "best PD (NB)", "best PD (B)"});
    Accumulator avg_eps, avg_nb, avg_b;
    std::vector<uint32_t> best_b;

    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig4/" + bench + "/";

        // Baseline: DRRIP at the paper's default epsilon.
        const SimResult *base = records.single(prefix + "DRRIP-eps:32");
        if (!base) {
            out << "(skipping " << bench << ": DRRIP baseline missing)\n";
            continue;
        }

        // DRRIP with the best epsilon of Fig. 2's sweep.
        uint64_t best_eps_misses = ~0ull;
        for (unsigned denom : kFig4EpsDenoms) {
            const SimResult *r = records.single(
                prefix + "DRRIP-eps:" + std::to_string(denom));
            if (r)
                best_eps_misses = std::min(best_eps_misses, r->llcMisses);
        }

        const GridBest nb = bestOverPdGrid(records, prefix + "SPDP-NB:");
        const GridBest bp = bestOverPdGrid(records, prefix + "SPDP-B:");
        if (!nb.result || !bp.result) {
            out << "(skipping " << bench << ": static-PD grid missing)\n";
            continue;
        }

        auto reduction = [&](uint64_t misses) {
            return base->llcMisses
                ? 1.0 - static_cast<double>(misses) / base->llcMisses
                : 0.0;
        };
        const double r_eps = reduction(best_eps_misses);
        const double r_nb = reduction(nb.result->llcMisses);
        const double r_b = reduction(bp.result->llcMisses);
        avg_eps.add(r_eps);
        avg_nb.add(r_nb);
        avg_b.add(r_b);

        table.addRow({bench, Table::pct(r_eps), Table::pct(r_nb),
                      Table::pct(r_b), std::to_string(nb.pd),
                      std::to_string(bp.pd)});
        best_b.push_back(bp.pd);
    }
    table.addRow({"AVERAGE", Table::pct(avg_eps.mean()),
                  Table::pct(avg_nb.mean()), Table::pct(avg_b.mean()), "",
                  ""});
    table.print(out);

    out << "\nPaper reference: SPDP-B >= SPDP-NB >= DRRIP(best eps) "
           ">= 0 on nearly every benchmark.\n";

    // Table 2 is the histogram of the "best PD (B)" column: the same
    // SPDP-B grid, run length and tie-break.
    out << "\n==== Table 2: distribution of optimal PDs (best PD (B) "
           "above) ====\n\n";
    Table summary({"PD range", "# benchmarks"});
    uint32_t lo = 0;
    for (const auto &[range, hi] :
         {std::pair<const char *, uint32_t>{"16-64", 64}, {"65-128", 128},
          {"129-192", 192}, {"193-256", 256}, {">256", UINT32_MAX}}) {
        summary.addRow({range, std::to_string(std::count_if(
                                   best_b.begin(), best_b.end(),
                                   [&](uint32_t pd) {
                                       return pd > lo && pd <= hi;
                                   }))});
        lo = hi;
    }
    summary.print(out);
    out << "\nPaper reference: zero benchmarks above 256 (d_max = 256 "
           "suffices); a handful above 128 (d_max = 128 would cost "
           "performance).\n";
}

// ---------------------------------------------------------------------------
// fig12_partitioning — Fig. 12: shared-cache partitioning.

const std::vector<std::string> kFig12Policies = {"UCP", "PIPP", "PDP-2",
                                                 "PDP-3"};
constexpr unsigned kFig12Workloads = 8;

std::vector<Job>
buildFig12(const SuiteOptions &options)
{
    std::vector<Job> jobs;
    for (unsigned cores : {4u, 16u}) {
        MultiCoreConfig config;
        config.cores = cores;
        config = config.scaled(options.scale);
        config.telemetry = telemetryConfig(options);
        const auto workloads = randomWorkloads(kFig12Workloads, cores);
        for (unsigned w = 0; w < workloads.size(); ++w) {
            const std::string prefix = "fig12/" + std::to_string(cores) +
                "c/w" + std::to_string(w) + "/";
            jobs.push_back(multiCoreJob(prefix + "TA-DRRIP", workloads[w],
                                        "TA-DRRIP", config));
            for (const std::string &policy : kFig12Policies)
                jobs.push_back(multiCoreJob(prefix + policy, workloads[w],
                                            policy, config));
        }
    }
    return jobs;
}

void
reportFig12(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 12: shared-cache partitioning ====\n\n";

    for (unsigned cores : {4u, 16u}) {
        const auto workloads = randomWorkloads(kFig12Workloads, cores);

        out << "--- " << cores << "-core workloads (normalized to "
               "TA-DRRIP) ---\n";
        Table table(
            {"workload", "metric", "UCP", "PIPP", "PDP-2", "PDP-3"});

        std::map<std::string, Accumulator> avg_w, avg_t, avg_h;
        for (unsigned w = 0; w < workloads.size(); ++w) {
            const std::string prefix = "fig12/" + std::to_string(cores) +
                "c/w" + std::to_string(w) + "/";
            const MultiCoreResult *base = records.multi(prefix + "TA-DRRIP");
            if (!base) {
                out << "(skipping " << workloads[w].label()
                    << ": TA-DRRIP baseline missing)\n";
                continue;
            }

            std::vector<std::string> row_w = {workloads[w].label(), "W"};
            std::vector<std::string> row_t = {"", "T"};
            std::vector<std::string> row_h = {"", "H"};
            for (const std::string &policy : kFig12Policies) {
                const MultiCoreResult *r = records.multi(prefix + policy);
                if (!r) {
                    row_w.push_back("n/a");
                    row_t.push_back("n/a");
                    row_h.push_back("n/a");
                    continue;
                }
                const double wv = r->weightedIpc / base->weightedIpc - 1.0;
                const double tv = r->throughput / base->throughput - 1.0;
                const double hv =
                    r->harmonicFairness / base->harmonicFairness - 1.0;
                row_w.push_back(Table::pct(wv));
                row_t.push_back(Table::pct(tv));
                row_h.push_back(Table::pct(hv));
                avg_w[policy].add(wv);
                avg_t[policy].add(tv);
                avg_h[policy].add(hv);
            }
            table.addRow(row_w);
            table.addRow(row_t);
            table.addRow(row_h);
        }

        for (const char *metric : {"W", "T", "H"}) {
            std::vector<std::string> row = {"AVERAGE", metric};
            auto &avg = metric[0] == 'W' ? avg_w
                        : metric[0] == 'T' ? avg_t
                                           : avg_h;
            for (const std::string &policy : kFig12Policies)
                row.push_back(Table::pct(avg[policy].mean()));
            table.addRow(row);
        }
        table.print(out);
        out << '\n';
    }
    out << "Paper reference: 16-core PDP-3 partitioning +5.2% W, "
           "+6.4% T, +9.9% H over TA-DRRIP; UCP/PIPP scale poorly.\n";
}

// ---------------------------------------------------------------------------
// smoke — a minutes-at-scale-1, seconds-at-0.02 CI sanity grid.

std::vector<Job>
buildSmoke(const SuiteOptions &options)
{
    const SimConfig config =
        scaledConfig(options, 1'500'000, 500'000);
    std::vector<Job> jobs;

    const std::vector<std::pair<std::string, std::string>> cells = {
        {"450.soplex", "DIP"},       {"450.soplex", "PDP-3"},
        {"436.cactusADM", "DRRIP"},  {"436.cactusADM", "PDP-3"},
        {"436.cactusADM", "SPDP-B:64"},
    };
    for (const auto &[bench, policy] : cells)
        jobs.push_back(singleCoreJob("smoke/" + bench + "/" + policy, bench,
                                     policy, config));

    // A tiny static-PD grid (the embarrassingly parallel shape of Fig. 4).
    for (uint32_t pd : {32u, 64u, 128u})
        jobs.push_back(singleCoreJob(
            "smoke/450.soplex/SPDP-B:" + std::to_string(pd), "450.soplex",
            [pd] { return makeSpdpB(pd); }, config));

    // One 2-core shared-LLC job.
    MultiCoreConfig mc;
    mc.cores = 2;
    mc = mc.scaled(options.scale);
    mc.telemetry = telemetryConfig(options);
    const auto names = SpecSuite::multiCoreNames();
    WorkloadSpec workload;
    workload.benchmarks = {names.at(0), names.at(1)};
    jobs.push_back(
        multiCoreJob("smoke/multi/w0/PDP-2", workload, "PDP-2", mc));
    return jobs;
}

// ---------------------------------------------------------------------------
// model_validation — the analytic estimator (src/model/) cross-validated
// against the simulator on the single-core workload set: fingerprint
// each benchmark once, predict a PD spread for both SPDP families plus
// LRU, simulate the same cells over one lockstep decode, and attach the
// per-point |predicted - simulated| error to every record's metrics.
// Metrics survive the deterministic JSON form, so BENCH_model_validation
// .json doubles as the model's machine-readable accuracy ledger.

/** PDs each benchmark is cross-validated at: a power spread over the
 *  static grid's range (the full 19-point grid triples the suite's cost
 *  for no extra information about model quality). */
const std::vector<uint32_t> kValidationPds = {16, 32, 64, 128, 256};

/** Fingerprint whose measured window matches one simulation config. */
RddFingerprint
suiteFingerprint(const std::string &bench, uint64_t seed,
                 const SimConfig &config)
{
    FingerprintOptions fopt;
    fopt.accesses = config.accesses;
    fopt.warmup = config.warmup;
    return fingerprintBenchmark(bench, seed, fopt);
}

/** One benchmark's validation: fingerprint once, predict every cell in
 *  microseconds, then simulate the identical cells over one lockstep
 *  decode and attach the error metrics. */
Job
modelValidationJob(const std::string &bench, const SimConfig &config)
{
    Job job;
    job.key = "model_validation/" + bench + "/lockstep";
    job.seed = seedFor(bench);
    job.runMany = [bench, config](const JobContext &ctx) {
        const std::string prefix = "model_validation/" + bench + "/";
        const RddFingerprint fp = suiteFingerprint(bench, ctx.seed, config);
        const model::AnalyticModel estimator{model::ModelConfig{}};

        struct Cell
        {
            std::string key;
            model::Prediction pred;
            bool bypass;
        };
        std::vector<Cell> cells;
        std::vector<std::function<std::unique_ptr<ReplacementPolicy>()>>
            factories;
        for (bool byp : {false, true}) {
            for (uint32_t pd : kValidationPds) {
                cells.push_back({prefix + (byp ? "SPDP-B:" : "SPDP-NB:") +
                                     std::to_string(pd),
                                 estimator.predictPdpAt(fp, pd, byp), byp});
                factories.push_back(
                    [pd, byp]() -> std::unique_ptr<ReplacementPolicy> {
                        return byp ? makeSpdpB(pd) : makeSpdpNb(pd);
                    });
            }
        }
        cells.push_back({prefix + "LRU", estimator.predictLru(fp), false});
        factories.push_back([] { return makePolicy("LRU"); });

        auto gen = SpecSuite::make(bench, ctx.seed);
        const std::vector<SimResult> results =
            runSingleCoreLockstep(*gen, config, factories, ctx.threads);

        std::vector<KeyedOutcome> outcomes(results.size());
        for (size_t c = 0; c < results.size(); ++c) {
            const SimResult &r = results[c];
            outcomes[c].key = cells[c].key;
            outcomes[c].outcome.single = r;
            auto &m = outcomes[c].outcome.metrics;
            const double sim = r.llcAccesses
                ? static_cast<double>(r.llcHits) / r.llcAccesses
                : 0.0;
            m["pred_hit_rate"] = cells[c].pred.hitRate;
            m["sim_hit_rate"] = sim;
            m["abs_err"] = std::fabs(cells[c].pred.hitRate - sim);
            m["err_bar"] = cells[c].pred.errorBar;
            if (cells[c].bypass) {
                m["pred_bypass"] = cells[c].pred.bypassFraction;
                m["sim_bypass"] = r.bypassFraction;
            }
        }
        return outcomes;
    };
    return job;
}

std::vector<Job>
buildModelValidation(const SuiteOptions &options)
{
    // The window the balance model was calibrated on (tests/test_model
    // pins the committed error bounds to it).
    const SimConfig config = scaledConfig(options, 2'000'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames())
        jobs.push_back(modelValidationJob(bench, config));
    return jobs;
}

/** Shared metric reader for reports over runMany/metrics records. */
bool
recordMetric(const RecordLookup &records, const std::string &key,
             const char *name, double *value)
{
    const JobRecord *record = records.find(key);
    if (!record || record->status == JobStatus::Failed)
        return false;
    const auto it = record->outcome.metrics.find(name);
    if (it == record->outcome.metrics.end())
        return false;
    *value = it->second;
    return true;
}

void
reportModelValidation(std::ostream &out, const RecordLookup &records)
{
    out << "==== model_validation: analytic estimator vs simulator "
           "====\n\n";

    Table table({"benchmark", "cells", "mean |err|", "worst |err|",
                 "worst cell", "err bar", "LRU |err|"});
    Accumulator all_err;
    double suite_worst = 0.0;
    std::string suite_worst_cell = "-";

    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "model_validation/" + bench + "/";
        Accumulator errs;
        double worst = 0.0, worst_bar = 0.0;
        std::string worst_cell = "-";
        int cells = 0;
        const auto account = [&](const std::string &cell) {
            double err = 0.0, bar = 0.0;
            if (!recordMetric(records, prefix + cell, "abs_err", &err))
                return;
            recordMetric(records, prefix + cell, "err_bar", &bar);
            ++cells;
            errs.add(err);
            all_err.add(err);
            if (err > worst) {
                worst = err;
                worst_bar = bar;
                worst_cell = cell;
            }
            if (err > suite_worst) {
                suite_worst = err;
                suite_worst_cell = bench + "/" + cell;
            }
        };
        for (uint32_t pd : kValidationPds) {
            account("SPDP-NB:" + std::to_string(pd));
            account("SPDP-B:" + std::to_string(pd));
        }
        double lru_err = 0.0;
        const bool have_lru =
            recordMetric(records, prefix + "LRU", "abs_err", &lru_err);
        if (have_lru)
            all_err.add(lru_err);
        if (cells == 0 && !have_lru) {
            out << "(skipping " << bench << ": no records)\n";
            continue;
        }
        table.addRow({bench, std::to_string(cells),
                      Table::num(errs.mean(), 3), Table::num(worst, 3),
                      worst_cell, Table::num(worst_bar, 3),
                      have_lru ? Table::num(lru_err, 3) : "-"});
    }
    table.print(out);

    out << "\nsuite mean |err| = " << Table::num(all_err.mean(), 3)
        << ", worst = " << Table::num(suite_worst, 3) << " ("
        << suite_worst_cell << ")\n"
        << "err bar = fingerprint mass beyond the evaluated reach; "
           "tests/test_model pins the committed per-point bounds.\n";
}

// ---------------------------------------------------------------------------
// explore — the pruned design-space explorer: the analytic model ranks
// the full static-PD grid per SPDP family in microseconds, and only the
// top-K contenders (plus one seeded audit cell from the pruned tail)
// reach the simulator.  Without --explore the suite simulates the
// exhaustive grid under the identical record keys, so the two modes
// diff directly — same winner, a fraction of the simulations.

const std::vector<std::string> kExploreBenches = {
    "403.gcc",    "434.zeusmp", "450.soplex",
    "456.hmmer",  "464.h264ref", "482.sphinx3",
};

const char *
exploreFamily(bool bypass)
{
    return bypass ? "SPDP-B:" : "SPDP-NB:";
}

/** One grid cell of an explore plan. */
struct ExploreCell
{
    bool bypass = false;
    uint32_t pd = 0;
    /** The model's predicted hit rate for this cell. */
    double predicted = 0.0;
    /** True when the cell was chosen from the pruned tail as the audit
     *  sample rather than by rank. */
    bool audit = false;
};

/** The model's pruning decision for one benchmark. */
struct ExplorePlan
{
    /** Cells to simulate, in grid order (NB ascending, then B). */
    std::vector<ExploreCell> chosen;
    /** Predicted winner per family ([0] = NB, [1] = B). */
    uint32_t predBestPd[2] = {0, 0};
    double predBestHit[2] = {0.0, 0.0};
    /** Full design-space size the ranking covered. */
    size_t gridCells = 0;
    /** The fingerprint's tail mass as an error bar (same for every
     *  cell of one benchmark). */
    double errorBar = 0.0;
};

/**
 * Rank the full (family x PD) grid analytically and keep the top-K per
 * family plus one deterministic audit pick from the pruned tail.  Ties
 * in predicted hit rate break toward the lower PD (stable sort over the
 * ascending grid), so the plan is identical on every worker count.
 */
ExplorePlan
planExplore(const RddFingerprint &fp, unsigned top_k, uint64_t audit_seed)
{
    const std::vector<uint32_t> grid = defaultPdGrid();
    const model::AnalyticModel estimator{model::ModelConfig{}};

    ExplorePlan plan;
    plan.gridCells = 2 * grid.size();
    std::vector<ExploreCell> all;
    for (bool byp : {false, true}) {
        std::vector<ExploreCell> family;
        for (uint32_t pd : grid) {
            const model::Prediction p =
                estimator.predictPdpAt(fp, pd, byp);
            family.push_back({byp, pd, p.hitRate, false});
            plan.errorBar = p.errorBar;
        }
        std::stable_sort(family.begin(), family.end(),
                         [](const ExploreCell &a, const ExploreCell &b) {
                             return a.predicted > b.predicted;
                         });
        plan.predBestPd[byp ? 1 : 0] = family.front().pd;
        plan.predBestHit[byp ? 1 : 0] = family.front().predicted;
        for (size_t i = 0; i < family.size() && i < top_k; ++i)
            plan.chosen.push_back(family[i]);
        all.insert(all.end(), family.begin(), family.end());
    }

    // One audit cell from the pruned tail keeps the pruning honest: a
    // seeded but deterministic pick that competes against the chosen
    // contenders in the report and the winner checks.
    const auto gridOrder = [](const ExploreCell &a, const ExploreCell &b) {
        return a.bypass != b.bypass ? !a.bypass : a.pd < b.pd;
    };
    std::vector<ExploreCell> pruned;
    for (const ExploreCell &cell : all) {
        bool kept = false;
        for (const ExploreCell &c : plan.chosen)
            kept = kept || (c.bypass == cell.bypass && c.pd == cell.pd);
        if (!kept)
            pruned.push_back(cell);
    }
    std::sort(pruned.begin(), pruned.end(), gridOrder);
    if (!pruned.empty()) {
        ExploreCell audit = pruned[audit_seed % pruned.size()];
        audit.audit = true;
        plan.chosen.push_back(audit);
    }

    // Simulate in grid order — the exhaustive suite's cell order — so
    // lockstep lane assignment is reproducible.
    std::sort(plan.chosen.begin(), plan.chosen.end(), gridOrder);
    return plan;
}

/** The pruned path for one benchmark: fingerprint, rank, simulate only
 *  the plan's cells over one lockstep decode.  Emits the same per-cell
 *  record keys as the exhaustive grid plus one "model" summary record
 *  (pure deterministic metrics, no wall-clock). */
Job
exploreJob(const std::string &bench, const SimConfig &config, unsigned top_k)
{
    Job job;
    job.key = "explore/" + bench + "/pruned";
    job.seed = seedFor(bench);
    job.runMany = [bench, config, top_k](const JobContext &ctx) {
        const std::string prefix = "explore/" + bench + "/";
        const RddFingerprint fp = suiteFingerprint(bench, ctx.seed, config);
        const ExplorePlan plan =
            planExplore(fp, top_k, seedFor(bench + "/explore-audit"));

        std::vector<std::function<std::unique_ptr<ReplacementPolicy>()>>
            factories;
        for (const ExploreCell &cell : plan.chosen)
            factories.push_back(
                [cell]() -> std::unique_ptr<ReplacementPolicy> {
                    return cell.bypass ? makeSpdpB(cell.pd)
                                       : makeSpdpNb(cell.pd);
                });

        auto gen = SpecSuite::make(bench, ctx.seed);
        const std::vector<SimResult> results =
            runSingleCoreLockstep(*gen, config, factories, ctx.threads);

        std::vector<KeyedOutcome> outcomes;
        outcomes.reserve(results.size() + 1);
        for (size_t c = 0; c < results.size(); ++c) {
            const ExploreCell &cell = plan.chosen[c];
            KeyedOutcome keyed;
            keyed.key = prefix + exploreFamily(cell.bypass) +
                std::to_string(cell.pd);
            keyed.outcome.single = results[c];
            keyed.outcome.metrics["pred_hit_rate"] = cell.predicted;
            keyed.outcome.metrics["audit_cell"] = cell.audit ? 1.0 : 0.0;
            outcomes.push_back(std::move(keyed));
        }

        KeyedOutcome summary;
        summary.key = prefix + "model";
        auto &m = summary.outcome.metrics;
        m["grid_cells"] = static_cast<double>(plan.gridCells);
        m["simulated_cells"] = static_cast<double>(plan.chosen.size());
        m["top_k"] = static_cast<double>(top_k);
        m["pred_best_pd_nb"] = static_cast<double>(plan.predBestPd[0]);
        m["pred_best_pd_b"] = static_cast<double>(plan.predBestPd[1]);
        m["pred_best_hit_nb"] = plan.predBestHit[0];
        m["pred_best_hit_b"] = plan.predBestHit[1];
        m["err_bar"] = plan.errorBar;
        outcomes.push_back(std::move(summary));
        return outcomes;
    };
    return job;
}

std::vector<Job>
buildExplore(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kExploreBenches) {
        const std::string prefix = "explore/" + bench + "/";
        if (options.explore) {
            jobs.push_back(exploreJob(bench, config,
                                      std::max(1u, options.exploreTopK)));
            continue;
        }
        std::vector<PolicyCell> cells;
        for (uint32_t pd : defaultPdGrid())
            cells.emplace_back(prefix + "SPDP-NB:" + std::to_string(pd),
                               [pd] { return makeSpdpNb(pd); });
        for (uint32_t pd : defaultPdGrid())
            cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                               [pd] { return makeSpdpB(pd); });
        emitCells(&jobs, options, prefix, bench, std::move(cells), config);
    }
    return jobs;
}

void
reportExplore(std::ostream &out, const RecordLookup &records)
{
    const bool pruned_mode = records.find(
        "explore/" + kExploreBenches.front() + "/model") != nullptr;
    out << "==== explore: static-PD design space ("
        << (pruned_mode ? "model-pruned" : "exhaustive") << ") ====\n\n";

    Table table({"benchmark", "family", "best PD", "hit rate",
                 "predicted PD", "cells simulated"});
    for (const std::string &bench : kExploreBenches) {
        const std::string prefix = "explore/" + bench + "/";
        for (bool byp : {false, true}) {
            const std::string fam = exploreFamily(byp);
            const GridBest best = bestOverPdGrid(records, prefix + fam);
            size_t simulated = 0;
            for (uint32_t pd : defaultPdGrid())
                if (records.single(prefix + fam + std::to_string(pd)))
                    ++simulated;
            std::string family_label = fam;
            family_label.pop_back(); // drop the trailing ':'
            if (!best.result) {
                table.addRow({byp ? "" : bench, family_label, "n/a", "n/a",
                              "n/a", std::to_string(simulated)});
                continue;
            }
            double pred_pd = 0.0;
            const bool have_pred = recordMetric(
                records, prefix + "model",
                byp ? "pred_best_pd_b" : "pred_best_pd_nb", &pred_pd);
            const double hit = best.result->llcAccesses
                ? static_cast<double>(best.result->llcHits) /
                    best.result->llcAccesses
                : 0.0;
            table.addRow(
                {byp ? "" : bench, family_label, std::to_string(best.pd),
                 Table::num(hit, 3),
                 have_pred
                     ? std::to_string(static_cast<uint32_t>(pred_pd))
                     : "-",
                 std::to_string(simulated)});
        }
    }
    table.print(out);

    if (pruned_mode) {
        out << "\n\"best PD\" minimizes simulated misses over the "
               "contenders the model chose (top-K per family + one "
               "seeded audit cell from the pruned tail);\nthe hotpath "
               "suite's explore job checks the same selection against "
               "the exhaustive grid and times the speedup.\n";
    } else {
        out << "\nexhaustive grid (38 cells per benchmark); rerun with "
               "--explore to let the analytic model prune it.\n";
    }
}

// ---------------------------------------------------------------------------
// The remaining paper artifacts, on the same harness as the sweep suites:
// lockstep groups over one decode per benchmark, or a fingerprint pass
// where the figure is a reuse-distance distribution, with per-lane
// extras in the records' metrics.

/** Metric `name` of `key`'s record, or `fallback` when absent. */
double
metricOr(const RecordLookup &records, const std::string &key,
         const std::string &name, double fallback = 0.0)
{
    recordMetric(records, key, name.c_str(), &fallback);
    return fallback;
}

/** One table row per benchmark and one column per cell: the ratio of
 *  `field` in the record "<figure>/<bench>/<cell>" to the row's `base`
 *  cell, as a 3-digit number, or as a percent change with `gain` ("n/a"
 *  where a record is missing or the ratio is not finite).  With
 *  `average`, a last row holds the column means. */
void
printRatioTable(std::ostream &out, const RecordLookup &records,
                std::vector<std::string> header, const std::string &figure,
                const std::vector<std::string> &benches,
                const std::string &base, const std::vector<std::string> &cells,
                double SimResult::*field, bool gain, bool average)
{
    const auto text = [gain](double v) {
        return gain ? Table::pct(v) : Table::num(v, 3);
    };
    Table table(std::move(header));
    std::vector<Accumulator> means(cells.size());
    for (const std::string &bench : benches) {
        const std::string prefix = figure + "/" + bench + "/";
        const SimResult *b = records.single(prefix + base);
        std::vector<std::string> row = {bench};
        for (size_t c = 0; c < cells.size(); ++c) {
            const SimResult *r = records.single(prefix + cells[c]);
            const double v =
                r && b ? r->*field / b->*field - (gain ? 1.0 : 0.0) : NAN;
            row.push_back(std::isfinite(v) ? text(v) : "n/a");
            if (std::isfinite(v))
                means[c].add(v);
        }
        table.addRow(row);
    }
    if (average) {
        std::vector<std::string> row = {"AVERAGE"};
        for (const Accumulator &mean : means)
            row.push_back(text(mean.mean()));
        table.addRow(row);
    }
    table.print(out);
}

/** A plain job whose metrics `measure` derives from the benchmark's
 *  exact RDD as Figs. 1, 5b and 6 plot it: the LLC input of its first
 *  `accesses` accesses, profiled at the hardware d_max. */
Job
rddJob(std::string key, const std::string &bench, uint64_t accesses,
       void (*measure)(const RddFingerprint &,
                       std::map<std::string, double> &))
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor(bench);
    job.run = [bench, accesses, measure](const JobContext &ctx) {
        FingerprintOptions fopt;
        fopt.accesses = accesses;
        fopt.warmup = 0;
        fopt.dMax = 256;
        JobOutcome outcome;
        measure(fingerprintBenchmark(bench, ctx.seed, fopt),
                outcome.metrics);
        return outcome;
    };
    return job;
}

// fig1_rdd — Fig. 1 / Fig. 5b: RDDs of selected benchmarks and of the
// three xalancbmk windows.

const std::vector<std::string> kFig1Benches = {
    "403.gcc", "436.cactusADM", "450.soplex", "464.h264ref", "482.sphinx3"};
const std::vector<std::string> kFig5bBenches = {
    "483.xalancbmk.1", "483.xalancbmk.2", "483.xalancbmk.3"};

/** Distances per rendered RDD bucket: 16 buckets up to d_max = 256. */
constexpr uint32_t kRddBucket = 16;

/** Metric name of the RDD bucket starting at distance `lo`. */
std::string
rddBucketMetric(uint32_t lo)
{
    char name[32];
    std::snprintf(name, sizeof name, "rdd:%03u", lo);
    return name;
}

/** The RDD as Fig. 1 draws it: bucket sums, the main peak and the
 *  share of accesses that reuse within d_max. */
void
measureRdd(const RddFingerprint &fp, std::map<std::string, double> &m)
{
    uint64_t peak = 0;
    uint32_t peakRd = 1;
    for (uint32_t d = 1; d <= fp.dMax; ++d) {
        const uint64_t count = fp.counts[d - 1];
        if (count > peak) {
            peak = count;
            peakRd = d;
        }
        m[rddBucketMetric(d - (d - 1) % kRddBucket)] +=
            static_cast<double>(count);
    }
    m["peak_rd"] = peakRd;
    m["peak_count"] = static_cast<double>(std::max<uint64_t>(peak, 1));
    m["covered"] = fp.accesses ? static_cast<double>(fp.hitSum()) /
            static_cast<double>(fp.accesses)
                               : 0.0;
}

std::vector<Job>
buildFig1(const SuiteOptions &options)
{
    const uint64_t accesses = scaledConfig(options).accesses;
    std::vector<Job> jobs;
    for (const auto *benches : {&kFig1Benches, &kFig5bBenches})
        for (const std::string &bench : *benches)
            jobs.push_back(
                rddJob("fig1/" + bench + "/rdd", bench, accesses, measureRdd));
    return jobs;
}

void
printRdds(std::ostream &out, const RecordLookup &records,
          const std::vector<std::string> &benches)
{
    for (const std::string &bench : benches) {
        const std::string key = "fig1/" + bench + "/rdd";
        double peakRd = 0.0;
        if (!recordMetric(records, key, "peak_rd", &peakRd)) {
            out << "(skipping " << bench << ": no record)\n\n";
            continue;
        }
        const double peak = metricOr(records, key, "peak_count", 1.0);
        out << bench << "  (peak RD = " << static_cast<uint32_t>(peakRd)
            << ", covered <= d_max: "
            << Table::upct(metricOr(records, key, "covered")) << ")\n";
        for (uint32_t lo = 1; lo <= 256; lo += kRddBucket) {
            const double count = metricOr(records, key, rddBucketMetric(lo));
            const int bar =
                static_cast<int>(60.0 * count / (peak * kRddBucket));
            out << "  " << (lo < 100 ? lo < 10 ? "  " : " " : "") << lo
                << "-" << lo + kRddBucket - 1 << " |"
                << std::string(bar, '#') << " "
                << static_cast<uint64_t>(count) << "\n";
        }
        out << "\n";
    }
}

void
reportFig1(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 1: RDDs of selected benchmarks ====\n\n";
    printRdds(out, records, kFig1Benches);
    out << "==== Fig. 5b: RDDs of the three xalancbmk windows ====\n\n";
    printRdds(out, records, kFig5bBenches);
    out << "Paper reference: per-benchmark peaks near 32/100 (gcc), ~72 "
           "(cactusADM), 24/120 (soplex), ~20 (h264ref), ~100 (sphinx3); "
           "xalancbmk windows peak near 100, 88 and 124/40.\n";
}

// fig2_epsilon — Fig. 2: DRRIP misses vs the BRRIP epsilon.

const std::vector<std::string> kFig2Benches = {
    "403.gcc", "436.cactusADM", "464.h264ref", "483.xalancbmk.3"};
const std::vector<unsigned> kFig2EpsDenoms = {4, 8, 16, 32, 64, 128, 256};

std::vector<Job>
buildFig2(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options);
    std::vector<Job> jobs;
    for (const std::string &bench : kFig2Benches) {
        const std::string prefix = "fig2/" + bench + "/";
        std::vector<PolicyCell> cells;
        for (unsigned denom : kFig2EpsDenoms)
            cells.emplace_back(
                prefix + "DRRIP-eps:" + std::to_string(denom),
                [denom] { return makeDrrip(1.0 / denom); });
        emitCells(&jobs, options, prefix, bench, std::move(cells), config);
    }
    return jobs;
}

void
reportFig2(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 2: DRRIP MPKI vs epsilon (normalized to "
           "eps=1/32) ====\n\n";
    std::vector<std::string> header = {"benchmark"}, cells;
    for (unsigned denom : kFig2EpsDenoms) {
        header.push_back("1/" + std::to_string(denom));
        cells.push_back("DRRIP-eps:" + std::to_string(denom));
    }
    printRatioTable(out, records, header, "fig2", kFig2Benches,
                    "DRRIP-eps:32", cells, &SimResult::mpki, false, false);
    out << "\nPaper reference: lower-is-better; cactusADM/xalancbmk "
           "degrade as epsilon shrinks, gcc/h264ref prefer larger "
           "epsilon.\n";
}

// fig5a_occupancy — Fig. 5a: LLC access and occupancy breakdown under
// DRRIP and the best static SPDP-NB / SPDP-B.  Every lane of the two
// static-PD grids carries an OccupancyTracker, so the report picks each
// family's miss-minimizing PD (fig4's choice: same grid, run length and
// tie-break) without a second decode.

const std::vector<std::string> kFig5aBenches = {"436.cactusADM",
                                                "464.h264ref"};

/** Occupancy metrics, in OccupancyBreakdown field order. */
const char *const kOccupancyMetrics[] = {
    "acc_hit", "acc_bypass", "acc_evict_short", "acc_evict_long",
    "occ_hit", "occ_evict_short", "occ_evict_long", "max_occupancy"};

/** Lane probe: an OccupancyTracker on the lane's LLC for the whole run;
 *  its breakdown (raw counts) lands in the record's metrics. */
LaneReader
occupancyProbe(Cache &llc)
{
    auto tracker = std::make_shared<OccupancyTracker>(llc);
    llc.setObserver(tracker.get());
    return [tracker, &llc](std::map<std::string, double> &m) {
        llc.setObserver(nullptr);
        const OccupancyBreakdown &b = tracker->breakdown();
        const uint64_t values[] = {
            b.hits,          b.bypasses,       b.evictsShort,
            b.evictsLong,    b.occupancyHits,  b.occupancyShort,
            b.occupancyLong, b.maxOccupancy};
        for (size_t i = 0; i < std::size(values); ++i)
            m[kOccupancyMetrics[i]] = static_cast<double>(values[i]);
    };
}

std::vector<Job>
buildFig5a(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kFig5aBenches) {
        const std::string prefix = "fig5a/" + bench + "/";
        std::vector<PolicyCell> cells;
        cells.push_back({prefix + "DRRIP", [] { return makePolicy("DRRIP"); },
                         occupancyProbe});
        for (uint32_t pd : defaultPdGrid()) {
            cells.push_back({prefix + "SPDP-NB:" + std::to_string(pd),
                             [pd] { return makeSpdpNb(pd); }, occupancyProbe});
            cells.push_back({prefix + "SPDP-B:" + std::to_string(pd),
                             [pd] { return makeSpdpB(pd); }, occupancyProbe});
        }
        jobs.push_back(lockstepSweepJob(prefix + "lockstep", bench,
                                        std::move(cells), config));
    }
    return jobs;
}

void
reportFig5a(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 5a: access and occupancy breakdown ====\n\n";
    Table table({"benchmark", "policy", "acc:hit", "acc:bypass",
                 "acc:evict<=16", "acc:evict>16", "occ:hit",
                 "occ:evict<=16", "occ:evict>16", "max occupancy"});
    std::string chosen;
    for (const std::string &bench : kFig5aBenches) {
        const std::string prefix = "fig5a/" + bench + "/";
        const uint32_t pdNb = bestOverPdGrid(records, prefix + "SPDP-NB:").pd;
        const uint32_t pdB = bestOverPdGrid(records, prefix + "SPDP-B:").pd;
        chosen += (chosen.empty() ? "" : "; ") + bench + ": NB " +
            std::to_string(pdNb) + ", B " + std::to_string(pdB);
        const std::pair<const char *, std::string> rows[] = {
            {"DRRIP", prefix + "DRRIP"},
            {"SPDP-NB", prefix + "SPDP-NB:" + std::to_string(pdNb)},
            {"SPDP-B", prefix + "SPDP-B:" + std::to_string(pdB)}};
        for (const auto &[label, key] : rows) {
            double v[std::size(kOccupancyMetrics)];
            bool have = true;
            for (size_t i = 0; i < std::size(kOccupancyMetrics); ++i)
                have = recordMetric(records, key, kOccupancyMetrics[i],
                                    &v[i]) && have;
            if (!have) {
                out << "(skipping " << key << ": no record)\n";
                continue;
            }
            const double events = v[0] + v[1] + v[2] + v[3];
            const double occ = v[4] + v[5] + v[6];
            std::vector<std::string> row = {bench, label};
            for (size_t i = 0; i < 7; ++i) {
                const double total = i < 4 ? events : occ;
                row.push_back(Table::upct(total > 0 ? v[i] / total : 0.0));
            }
            row.push_back(std::to_string(static_cast<uint64_t>(v[7])));
            table.addRow(row);
        }
    }
    table.print(out);
    out << "\nSPDP rows use each benchmark's best static PD over the "
           "fig4_static_pdp grid and run length (" << chosen << ").\n"
        << "\nPaper reference: PDP removes the long-eviction occupancy "
           "(no lines beyond ~90 accesses) and SPDP-B bypasses the bulk "
           "of h264ref's misses.\n";
}

// fig6_model — Fig. 6: the hit-rate model E(d_p), evaluated on each
// benchmark's exact RDD, against SPDP-B's measured hit rate over a PD
// grid (one lockstep group per benchmark).

const std::vector<std::string> kFig6Benches = {
    "403.gcc",     "436.cactusADM",   "464.h264ref",
    "482.sphinx3", "483.xalancbmk.2", "450.soplex"};
const std::vector<uint32_t> kFig6Pds = {16,  32,  48,  64,  80,  96,
                                        112, 128, 160, 192, 224, 256};

/** E(d_p) over the exact RDD folded into the hardware counter array
 *  (S_c = 4, counts scaled so none saturates): its maximum, argmax and
 *  value at every grid PD. */
void
measureHitRateModel(const RddFingerprint &fp, std::map<std::string, double> &m)
{
    RdCounterArray rdd(fp.dMax, 4);
    const uint64_t scale = std::max<uint64_t>(1, fp.accesses / 40000);
    for (uint32_t k = 0; k < rdd.numBuckets(); ++k) {
        uint64_t count = 0;
        for (uint32_t d = k * 4 + 1; d <= (k + 1) * 4; ++d)
            count += fp.counts[d - 1];
        rdd.addBucket(k, count / scale, 0);
    }
    rdd.addBucket(0, 0, fp.accesses / scale);
    const std::vector<EPoint> curve = HitRateModel(16).curve(rdd);

    double eMax = 0.0;
    uint32_t eArg = 0;
    for (const EPoint &p : curve)
        if (p.e > eMax) {
            eMax = p.e;
            eArg = p.dp;
        }
    m["e_max"] = eMax;
    m["e_argmax"] = eArg;
    for (uint32_t pd : kFig6Pds) {
        double e = 0.0;
        for (const EPoint &p : curve)
            if (p.dp <= pd)
                e = p.e;
        m["e:" + std::to_string(pd)] = e;
    }
}

std::vector<Job>
buildFig6(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 1'500'000, 600'000);
    std::vector<Job> jobs;
    for (const std::string &bench : kFig6Benches) {
        const std::string prefix = "fig6/" + bench + "/";
        jobs.push_back(rddJob(prefix + "model", bench, config.accesses,
                              measureHitRateModel));
        std::vector<PolicyCell> cells;
        for (uint32_t pd : kFig6Pds)
            cells.emplace_back(prefix + "SPDP-B:" + std::to_string(pd),
                               [pd] { return makeSpdpB(pd); });
        emitCells(&jobs, options, prefix, bench, std::move(cells), config);
    }
    return jobs;
}

void
reportFig6(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 6: E(d_p) vs the actual hit rate ====\n\n";
    for (const std::string &bench : kFig6Benches) {
        const std::string prefix = "fig6/" + bench + "/";
        double eMax = 0.0;
        if (!recordMetric(records, prefix + "model", "e_max", &eMax)) {
            out << "(skipping " << bench << ": no model record)\n\n";
            continue;
        }
        std::vector<double> measured;
        double hrMax = 0.0;
        uint32_t hrArg = 0;
        for (uint32_t pd : kFig6Pds) {
            const SimResult *r =
                records.single(prefix + "SPDP-B:" + std::to_string(pd));
            measured.push_back(r && r->llcAccesses
                                   ? static_cast<double>(r->llcHits) /
                                       static_cast<double>(r->llcAccesses)
                                   : 0.0);
            if (measured.back() > hrMax) {
                hrMax = measured.back();
                hrArg = pd;
            }
        }
        out << bench << "  (argmax E = "
            << static_cast<uint32_t>(
                   metricOr(records, prefix + "model", "e_argmax"))
            << ", argmax hit rate = " << hrArg << ")\n";
        Table table({"d_p", "E(d_p)/max", "hitrate/max"});
        for (size_t i = 0; i < kFig6Pds.size(); ++i) {
            const double e = metricOr(records, prefix + "model",
                                      "e:" + std::to_string(kFig6Pds[i]));
            table.addRow({std::to_string(kFig6Pds[i]),
                          Table::num(eMax > 0 ? e / eMax : 0.0, 3),
                          Table::num(hrMax > 0 ? measured[i] / hrMax : 0.0,
                                     3)});
        }
        table.print(out);
        out << "\n";
    }
    out << "Paper reference: the two argmax positions should fall in the "
           "same RDD region and the normalized shapes should track each "
           "other near the optimum.\n";
}

// fig9_params — Fig. 9: the RD sampler's size (Full vs the 32-FIFO
// "Real") and the counter step S_c, as dynamic-PDP lanes.

struct SamplerVariant
{
    const char *label;
    const char *cell;
    bool full;
    uint32_t step;
};

const std::vector<SamplerVariant> kFig9Variants = {
    {"Full Sc=1", "Full-Sc1", true, 1}, {"Real Sc=1", "Real-Sc1", false, 1},
    {"Real Sc=2", "Real-Sc2", false, 2}, {"Real Sc=4", "Real-Sc4", false, 4},
    {"Real Sc=8", "Real-Sc8", false, 8}};

std::vector<Job>
buildFig9(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options, 2'000'000, 800'000);
    const uint32_t sets = config.hierarchy.llc.numSets();
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "fig9/" + bench + "/";
        std::vector<PolicyCell> cells;
        for (const SamplerVariant &v : kFig9Variants)
            cells.emplace_back(prefix + v.cell, [v, sets] {
                PdpParams params;
                params.counterStep = v.step;
                if (v.full)
                    params.sampler = RdSamplerParams::full(sets);
                return std::make_unique<PdpPolicy>(params);
            });
        emitCells(&jobs, options, prefix, bench, std::move(cells), config);
    }
    return jobs;
}

void
reportFig9(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 9: PDP parameter exploration (MPKI normalized to "
           "Full, S_c=1) ====\n\n";
    std::vector<std::string> header = {"benchmark"}, cells;
    for (const SamplerVariant &v : kFig9Variants) {
        header.push_back(v.label);
        cells.push_back(v.cell);
    }
    printRatioTable(out, records, header, "fig9",
                    SpecSuite::singleCoreNames(), "Full-Sc1", cells,
                    &SimResult::mpki, false, true);
    out << "\nPaper reference: all columns within a few percent of 1.0; "
           "the Real sampler tracks Full; S_c=4 is the chosen "
           "overhead/performance trade-off.\n";
}

// fig11_phases — Fig. 11: adaptation to program phases on the phased
// benchmarks.  One group per benchmark carries (a) the recompute-interval
// lanes, (b) DIP, DRRIP and PDP-8, and (c) PDP-8's PD series (PDP-8 is
// the paper's default PdpParams, 512K-access interval).

const std::vector<std::pair<const char *, uint64_t>> kFig11Intervals = {
    {"256K", 256 * 1024}, {"1M", 1u << 20}, {"2M", 2u << 20},
    {"4M", 4u << 20},     {"8M", 8u << 20}};

/** Metric name of the i-th sample of a PD series. */
std::string
pdSampleMetric(size_t i)
{
    char name[32];
    std::snprintf(name, sizeof name, "pd:%04zu", i);
    return name;
}

/** Lane probe: a dynamic PDP lane's PD series, one sample per
 *  recomputation. */
LaneReader
pdHistoryProbe(Cache &llc)
{
    return [&llc](std::map<std::string, double> &m) {
        const std::vector<PdSample> &history =
            dynamic_cast<const PdpPolicy &>(llc.policy()).pdHistory();
        m["pd_samples"] = static_cast<double>(history.size());
        for (size_t i = 0; i < history.size(); ++i)
            m[pdSampleMetric(i)] = history[i].pd;
    };
}

std::vector<Job>
buildFig11(const SuiteOptions &options)
{
    // Phased benchmarks cycle with periods of 1.5M-2.5M accesses; run
    // long enough to see several phase transitions.
    const SimConfig config = scaledConfig(options, 6'000'000, 1'000'000);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const std::string prefix = "fig11/" + bench + "/";
        std::vector<PolicyCell> cells;
        for (const auto &[label, interval] : kFig11Intervals)
            cells.emplace_back(prefix + "interval:" + label, [interval] {
                PdpParams params;
                params.recomputeInterval = interval;
                return std::make_unique<PdpPolicy>(params);
            });
        for (const char *policy : {"DIP", "DRRIP"})
            cells.emplace_back(prefix + policy,
                               [policy] { return makePolicy(policy); });
        cells.push_back({prefix + "PDP-8", [] { return makePolicy("PDP-8"); },
                         pdHistoryProbe});
        jobs.push_back(lockstepSweepJob(prefix + "lockstep", bench,
                                        std::move(cells), config));
    }
    return jobs;
}

void
reportFig11(std::ostream &out, const RecordLookup &records)
{
    out << "==== Fig. 11a: PD recompute interval (IPC normalized to the "
           "256K interval) ====\n\n";
    std::vector<std::string> header = {"benchmark"}, cells;
    for (const auto &[label, interval] : kFig11Intervals) {
        header.push_back(label);
        cells.push_back(std::string("interval:") + label);
    }
    printRatioTable(out, records, header, "fig11", SpecSuite::phasedNames(),
                    cells.front(), cells, &SimResult::ipc, false, false);

    out << "\n==== Fig. 11b: policies on the phased benchmarks (IPC vs "
           "DIP) ====\n\n";
    printRatioTable(out, records, {"benchmark", "DRRIP", "PDP-8"}, "fig11",
                    SpecSuite::phasedNames(), "DIP", {"DRRIP", "PDP-8"},
                    &SimResult::ipc, true, false);

    out << "\n==== Fig. 11c: PD over time (one sample per "
           "recomputation) ====\n\n";
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const std::string key = "fig11/" + bench + "/PDP-8";
        out << bench << ": ";
        const auto samples =
            static_cast<size_t>(metricOr(records, key, "pd_samples"));
        for (size_t i = 0; i < samples; ++i)
            out << static_cast<uint32_t>(
                       metricOr(records, key, pdSampleMetric(i)))
                << " ";
        out << "\n";
    }
    out << "\nPaper reference: the PD series flips between the phases' "
           "distinct values; long reset intervals blur the phases and "
           "lose IPC.\n";
}

// prefetch — Sec. 6.5: prefetch-aware PDP.  A stream prefetcher on the
// shared front end fills every lane: prefetch-unaware DRRIP and PDP-8,
// and PDP-8 with prefetched lines inserted at PD = 1 or bypassed.

const std::vector<std::pair<const char *, PdpParams::PrefetchMode>>
    kPrefetchModes = {{"PDP-8", PdpParams::PrefetchMode::Normal},
                      {"PDP-8:pf-PD1", PdpParams::PrefetchMode::InsertPdOne},
                      {"PDP-8:pf-bypass", PdpParams::PrefetchMode::Bypass}};

std::vector<Job>
buildPrefetch(const SuiteOptions &options)
{
    const SimConfig config = scaledConfig(options);
    std::vector<Job> jobs;
    for (const std::string &bench : SpecSuite::singleCoreNames()) {
        const std::string prefix = "prefetch/" + bench + "/";
        std::vector<PolicyCell> cells;
        cells.emplace_back(prefix + "DRRIP",
                           [] { return makePolicy("DRRIP"); });
        for (const auto &[cell, mode] : kPrefetchModes)
            cells.emplace_back(prefix + cell, [mode] {
                PdpParams params;
                params.prefetchMode = mode;
                return std::make_unique<PdpPolicy>(params);
            });
        jobs.push_back(lockstepSweepJob(prefix + "lockstep", bench,
                                        std::move(cells), config,
                                        /*prefetcher=*/true));
    }
    return jobs;
}

void
reportPrefetch(std::ostream &out, const RecordLookup &records)
{
    out << "==== Sec. 6.5: prefetch-aware PDP (IPC vs prefetching "
           "DRRIP) ====\n\n";
    std::vector<std::string> cells;
    for (const auto &[cell, mode] : kPrefetchModes)
        cells.push_back(cell);
    printRatioTable(out, records,
                    {"benchmark", "PDP-8", "PDP-8 pf->PD=1",
                     "PDP-8 pf-bypass"},
                    "prefetch", SpecSuite::singleCoreNames(), "DRRIP", cells,
                    &SimResult::ipc, true, true);
    out << "\nPaper reference: aware variants >= unaware PDP >= DRRIP "
           "under prefetching.\n";
}

// ---------------------------------------------------------------------------
// hotpath — self-profiling throughput of the cache substrate itself.
//
// Unlike the figure suites, these jobs drive Cache::access directly (no
// hierarchy, no timing model) so the metric is the substrate's raw
// accesses/sec.  One job runs the frozen pre-SoA ReferenceCache on the
// identical trace, so every BENCH_hotpath.json carries the SoA-vs-AoS
// speedup as a machine-independent ratio next to the absolute rates.
//
// All timed jobs share one trace seed (seedFor("hotpath/trace")), so the
// hit rates in the dump are comparable across policies and substrates.
// The accesses/accesses_per_sec/hit_rate scalars land in JobOutcome::
// metrics; accesses_per_sec is inherently wall-clock-volatile, which is
// why determinism tests key on the smoke suite, not this one.

/** Trace length of one measured pass (addresses, not bytes). */
constexpr size_t kHotpathTraceLen = 1u << 20;

/** Uniform line addresses over `span`; ~25% of the paper LLC resident
 *  when span = 4 * numLines, which exercises hit, miss and evict paths
 *  in realistic proportion. */
std::vector<uint64_t>
hotpathTrace(uint64_t seed, uint64_t span)
{
    Rng rng(seed);
    std::vector<uint64_t> trace(kHotpathTraceLen);
    for (uint64_t &addr : trace)
        addr = rng.below(span);
    return trace;
}

/** Measured accesses at `scale` (floor keeps CI smoke runs meaningful). */
uint64_t
hotpathTarget(double scale)
{
    const double scaled = 16.0 * 1024 * 1024 * scale;
    return std::max<uint64_t>(2'000'000, static_cast<uint64_t>(scaled));
}

/** Wall-clock seconds one call of `work` takes. */
template <typename Work>
double
secondsOf(Work &&work)
{
    // pdplint: allow(wall-clock) hotpath suite measures throughput; the
    // rate lands only in the volatile metrics section.
    const auto t0 = std::chrono::steady_clock::now();
    work();
    // pdplint: allow(wall-clock) end of the same timed span.
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Walk `count` accesses of `trace` starting at *cursor (wrapping), and
 * return the wall-clock seconds the walk took.  *cursor advances so
 * consecutive segments continue the same access stream.
 *
 * `access` is called with the current address and the one after it: a
 * trace-driven caller always knows the next access, so the SoA jobs
 * software-pipeline the walk by issuing Cache::prefetchSet for the next
 * set before performing the current access.  That is part of the
 * substrate's driving model, not a trick of the benchmark — any trace
 * consumer can do the same.
 */
template <typename AccessFn>
double
timedSegment(const std::vector<uint64_t> &trace, size_t *cursor,
             uint64_t count, AccessFn &&access)
{
    const size_t n = trace.size();
    size_t i = *cursor;
    const double seconds = secondsOf([&] {
        for (uint64_t k = 0; k < count; ++k) {
            const uint64_t addr = trace[i];
            i = i + 1 == n ? 0 : i + 1;
            access(addr, trace[i]);
        }
    });
    *cursor = i;
    return seconds;
}

/** Pairs of interleaved A/B segments in one paired measurement (odd, so
 *  the median ratio is a real pair's ratio). */
constexpr int kHotpathPairs = 5;

/** Interleaved pairs in the sweep/explore measurements (odd; fewer than
 *  kHotpathPairs because each side is a full multi-config sweep). */
constexpr int kSweepPairs = 3;

/** Result of one paired A/B measurement. */
struct PairedTiming
{
    /** Median of the per-pair time ratios; 0 when no pair timed both
     *  sides above zero. */
    double medianRatio = 0.0;
    /** Each side's seconds, summed over the pairs. */
    double secondsA = 0.0;
    double secondsB = 0.0;
};

/**
 * The paired measurement every ratio row of the hotpath suite rests on.
 * Wall-clock rates on a shared machine drift by integer factors between
 * phases, so a ratio of two rates measured apart is meaningless.  Each
 * pair therefore runs side A, then side B, back to back (each closure
 * returns the seconds its timed work took), so both sides see the same
 * machine weather; the median over pairs sheds the odd descheduled
 * segment.  The per-pair ratio is A/B seconds, or B/A when `bOverA`.
 */
template <typename SideA, typename SideB>
PairedTiming
pairedMedian(int pairs, SideA &&sideA, SideB &&sideB, bool bOverA = false)
{
    PairedTiming timing;
    std::vector<double> ratios;
    for (int pair = 0; pair < pairs; ++pair) {
        const double a = sideA();
        const double b = sideB();
        timing.secondsA += a;
        timing.secondsB += b;
        if (a > 0 && b > 0)
            ratios.push_back(bOverA ? b / a : a / b);
    }
    std::sort(ratios.begin(), ratios.end());
    if (!ratios.empty())
        timing.medianRatio = ratios[ratios.size() / 2];
    return timing;
}

void
hotpathMetrics(JobOutcome &outcome, uint64_t done, double seconds,
               double hit_rate)
{
    outcome.metrics["accesses"] = static_cast<double>(done);
    outcome.metrics["accesses_per_sec"] =
        seconds > 0 ? static_cast<double>(done) / seconds : 0.0;
    outcome.metrics["hit_rate"] = hit_rate;
}

/**
 * Throughput of the live (SoA) Cache under a single-core policy,
 * measured against an in-job AoS twin: the live cache and a private
 * ReferenceCache walk the same stream in interleaved timed segments
 * (pairedMedian), and `vs_aos` is the median AoS/SoA time ratio.
 */
Job
hotpathCacheJob(std::string key, std::string policySpec, double scale)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor("hotpath/trace");
    job.run = [policySpec = std::move(policySpec),
               scale](const JobContext &ctx) {
        Cache cache(CacheConfig::paperLlc(), makePolicy(policySpec));
        ReferenceLru ref_lru;
        ReferenceCache ref(CacheConfig::paperLlc(), ref_lru);
        ref_lru.attach(ref.numSets(), ref.numWays());

        const auto trace =
            hotpathTrace(ctx.seed, cache.config().numLines() * 4);

        AccessContext access;
        const auto soa = [&](uint64_t addr, uint64_t next) {
            cache.prefetchSet(cache.setIndex(next));
            access.lineAddr = addr;
            access.set = cache.setIndex(addr);
            cache.access(access);
        };
        AccessContext ref_access;
        const auto aos = [&](uint64_t addr, uint64_t) {
            ref_access.lineAddr = addr;
            ref.access(ref_access);
        };

        // Warmup both substrates over one full pass.
        size_t soa_cursor = 0, aos_cursor = 0;
        timedSegment(trace, &soa_cursor, trace.size(), soa);
        timedSegment(trace, &aos_cursor, trace.size(), aos);
        cache.resetStats();

        const uint64_t seg =
            std::max<uint64_t>(hotpathTarget(scale) / kHotpathPairs, 1);
        const PairedTiming timing = pairedMedian(
            kHotpathPairs,
            [&] { return timedSegment(trace, &soa_cursor, seg, soa); },
            [&] { return timedSegment(trace, &aos_cursor, seg, aos); },
            /*bOverA=*/true);
        const uint64_t done = seg * kHotpathPairs;

        JobOutcome outcome;
        hotpathMetrics(outcome, done, timing.secondsA,
                       cache.stats().hitRate());
        outcome.metrics["aos_accesses_per_sec"] = timing.secondsB > 0
            ? static_cast<double>(done) / timing.secondsB
            : 0.0;
        outcome.metrics["vs_aos"] = timing.medianRatio;
        return outcome;
    };
    return job;
}

/** The frozen pre-SoA substrate alone: the absolute anchor every
 *  BENCH_hotpath.json carries next to the paired ratios. */
Job
hotpathReferenceJob(double scale)
{
    Job job;
    job.key = "hotpath/llc/AoS-reference";
    job.seed = seedFor("hotpath/trace");
    job.run = [scale](const JobContext &ctx) {
        ReferenceLru lru;
        ReferenceCache cache(CacheConfig::paperLlc(), lru);
        lru.attach(cache.numSets(), cache.numWays());
        const auto trace =
            hotpathTrace(ctx.seed, static_cast<uint64_t>(cache.numSets()) *
                                       cache.numWays() * 4);
        AccessContext access;
        const auto aos = [&](uint64_t addr, uint64_t) {
            access.lineAddr = addr;
            cache.access(access);
        };
        size_t cursor = 0;
        timedSegment(trace, &cursor, trace.size(), aos); // warmup
        const uint64_t target = hotpathTarget(scale);
        const double seconds = timedSegment(trace, &cursor, target, aos);
        JobOutcome outcome;
        const double hit_rate = cache.accesses()
            ? static_cast<double>(cache.hits()) / cache.accesses()
            : 0.0;
        hotpathMetrics(outcome, target, seconds, hit_rate);
        return outcome;
    };
    return job;
}

/** The partitioned multi-core fast path: a 4-core shared LLC under the
 *  PD partitioning policy, threads interleaved round-robin. */
Job
hotpathPartitionJob(double scale)
{
    Job job;
    job.key = "hotpath/shared/PDP-3-part-4c";
    job.seed = seedFor("hotpath/trace-shared");
    job.run = [scale](const JobContext &ctx) {
        constexpr unsigned kThreads = 4;
        Cache cache(CacheConfig::paperLlc(kThreads),
                    makeSharedPolicy("PDP-3", kThreads));
        // Thread t walks its own uniform window; the window tag in the
        // high bits keeps the per-thread footprints disjoint while the
        // low bits still spread over all sets.
        const uint64_t span = cache.config().numLines();
        Rng rng(ctx.seed);
        std::vector<uint64_t> trace(kHotpathTraceLen);
        for (size_t i = 0; i < trace.size(); ++i)
            trace[i] = (static_cast<uint64_t>(i & (kThreads - 1)) << 40) |
                rng.below(span);
        AccessContext access;
        const auto shared = [&](uint64_t addr, uint64_t next) {
            cache.prefetchSet(cache.setIndex(next));
            access.threadId = static_cast<uint8_t>(addr >> 40);
            access.lineAddr = addr;
            access.set = cache.setIndex(addr);
            cache.access(access);
        };
        size_t cursor = 0;
        timedSegment(trace, &cursor, trace.size(), shared); // warmup
        const uint64_t target = hotpathTarget(scale);
        const double seconds = timedSegment(trace, &cursor, target, shared);
        JobOutcome outcome;
        hotpathMetrics(outcome, target, seconds, cache.stats().hitRate());
        return outcome;
    };
    return job;
}

/**
 * Overhead of an enabled-but-idle telemetry build on the substrate hot
 * path: two identical SoA LRU caches walk the same stream in interleaved
 * paired segments; one side also bumps a registry counter per access —
 * the pattern an always-on metric would use.  `telemetry_idle_ratio` is
 * the median plain/instrumented time ratio (1.0 = free; CI gates >=
 * 0.98, i.e. within the 2% budget), and `telemetry_compiled` records
 * whether the build compiled telemetry in at all.
 */
Job
hotpathTelemetryIdleJob(double scale)
{
    Job job;
    job.key = "hotpath/llc/LRU-telemetry-idle";
    job.seed = seedFor("hotpath/trace");
    job.run = [scale](const JobContext &ctx) {
        Cache plain(CacheConfig::paperLlc(), makePolicy("LRU"));
        Cache instr(CacheConfig::paperLlc(), makePolicy("LRU"));
        const auto trace =
            hotpathTrace(ctx.seed, plain.config().numLines() * 4);

        telemetry::Counter &counter = telemetry::MetricsRegistry::global()
            .counter("hotpath.idle_probe", /*volatile_metric=*/true);
        AccessContext pa;
        const auto plain_walk = [&](uint64_t addr, uint64_t next) {
            plain.prefetchSet(plain.setIndex(next));
            pa.lineAddr = addr;
            pa.set = plain.setIndex(addr);
            plain.access(pa);
        };
        AccessContext ia;
        const auto instr_walk = [&](uint64_t addr, uint64_t next) {
            instr.prefetchSet(instr.setIndex(next));
            ia.lineAddr = addr;
            ia.set = instr.setIndex(addr);
            instr.access(ia);
            counter.add(1);
        };

        size_t plain_cursor = 0, instr_cursor = 0;
        timedSegment(trace, &plain_cursor, trace.size(), plain_walk);
        timedSegment(trace, &instr_cursor, trace.size(), instr_walk);
        plain.resetStats();

        const uint64_t seg =
            std::max<uint64_t>(hotpathTarget(scale) / kHotpathPairs, 1);
        const PairedTiming timing = pairedMedian(
            kHotpathPairs,
            [&] {
                return timedSegment(trace, &plain_cursor, seg, plain_walk);
            },
            [&] {
                return timedSegment(trace, &instr_cursor, seg, instr_walk);
            });

        JobOutcome outcome;
        hotpathMetrics(outcome, seg * kHotpathPairs, timing.secondsA,
                       plain.stats().hitRate());
        outcome.metrics["telemetry_idle_ratio"] = timing.medianRatio;
        outcome.metrics["telemetry_compiled"] =
            telemetry::kCompiled ? 1.0 : 0.0;
        return outcome;
    };
    return job;
}

/** The independent side of the sweep and explore rows: one cell as a
 *  per-access Hierarchy::access loop, the baseline a sweep pays without
 *  the lane engine. */
SimResult
perAccessRun(const std::string &bench, uint64_t seed,
             std::unique_ptr<ReplacementPolicy> policy,
             const SimConfig &config)
{
    auto gen = SpecSuite::make(bench, seed);
    Hierarchy hierarchy(config.hierarchy, std::move(policy));
    for (uint64_t i = 0; i < config.warmup; ++i)
        hierarchy.access(gen->next());
    hierarchy.resetStats();
    TimingModel timing(config.timing);
    for (uint64_t i = 0; i < config.accesses; ++i) {
        const Access access = gen->next();
        timing.onAccess(access.instrGap, hierarchy.access(access).level);
    }
    return makeSimResult(gen->name(), hierarchy.llc().policy().name(),
                         hierarchy.llc().stats(), timing);
}

/**
 * The tentpole ratio the CI gate keys on: one benchmark's full 19-point
 * SPDP-B static-PD grid, run as 19 independent sequential simulations vs
 * one lockstep sweep over a single trace decode (sim/lockstep_sweep.h).
 * `sweep_speedup` is the median per-pair independent/lockstep time
 * ratio.  The job PDP_CHECKs per-config miss equality across the sides,
 * so every hotpath run re-proves the lockstep engine exact.
 */
Job
hotpathSweepJob(double scale)
{
    Job job;
    job.key = "hotpath/sweep/SPDP-B-grid";
    job.seed = seedFor("456.hmmer");
    job.run = [scale](const JobContext &ctx) {
        const std::string bench = "456.hmmer";
        SimConfig config;
        config.accesses = std::max<uint64_t>(
            100'000, static_cast<uint64_t>(1'000'000 * scale));
        config.warmup = config.accesses / 4;

        const std::vector<uint32_t> grid = defaultPdGrid();
        std::vector<std::function<std::unique_ptr<ReplacementPolicy>()>>
            factories;
        for (uint32_t pd : grid)
            factories.push_back([pd] { return makeSpdpB(pd); });
        const unsigned threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

        std::vector<SimResult> lockstep, independent;
        const PairedTiming timing = pairedMedian(
            kSweepPairs,
            [&] {
                return secondsOf([&] {
                    independent.clear();
                    for (uint32_t pd : grid)
                        independent.push_back(perAccessRun(
                            bench, ctx.seed, makeSpdpB(pd), config));
                });
            },
            [&] {
                const double seconds = secondsOf([&] {
                    auto gen = SpecSuite::make(bench, ctx.seed);
                    lockstep = runSingleCoreLockstep(*gen, config,
                                                     factories, threads);
                });
                for (size_t c = 0; c < grid.size(); ++c)
                    PDP_CHECK(lockstep[c].llcMisses ==
                                      independent[c].llcMisses &&
                                  lockstep[c].cycles ==
                                      independent[c].cycles,
                              "lockstep sweep diverged from independent "
                              "runs at PD=", grid[c]);
                return seconds;
            });

        uint64_t hits = 0, accesses = 0;
        for (const SimResult &r : lockstep) {
            hits += r.llcHits;
            accesses += r.llcAccesses;
        }
        JobOutcome outcome;
        hotpathMetrics(
            outcome,
            static_cast<uint64_t>(kSweepPairs) * grid.size() *
                config.accesses,
            timing.secondsB,
            accesses ? static_cast<double>(hits) / accesses : 0.0);
        outcome.metrics["sweep_speedup"] = timing.medianRatio;
        outcome.metrics["sweep_configs"] =
            static_cast<double>(grid.size());
        // Lane fan-out actually used: check_perf only enforces the
        // absolute >= 4x floor when at least 4 lane workers ran (19
        // exact policy replays are irreducible work, so a 1-core host
        // tops out near 2x no matter how the front-end is amortized).
        outcome.metrics["sweep_threads"] = static_cast<double>(threads);
        return outcome;
    };
    return job;
}

/**
 * The explorer's CI ratio: one benchmark's full 38-cell static-PD design
 * space (both SPDP families), run exhaustively as independent sequential
 * simulations vs the model-pruned path — fingerprint + analytic ranking
 * + top-K-and-audit lockstep simulation.  `explore_speedup` is the
 * median per-pair exhaustive/pruned time ratio.  The job also PDP_CHECKs
 * that the pruned side's miss-minimizing cell matches the exhaustive
 * winner per family (within 2%, since sub-scale runs can flip near-tied
 * neighbours), so every hotpath run re-proves the pruning sound.
 */
Job
hotpathExploreJob(double scale)
{
    Job job;
    job.key = "hotpath/explore/SPDP-grid";
    job.seed = seedFor("450.soplex");
    job.run = [scale](const JobContext &ctx) {
        const std::string bench = "450.soplex";
        SimConfig config;
        config.accesses = std::max<uint64_t>(
            400'000, static_cast<uint64_t>(1'000'000 * scale));
        config.warmup = config.accesses / 4;
        const unsigned threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
        const std::vector<uint32_t> grid = defaultPdGrid();

        std::vector<SimResult> exhaustive, contenders;
        ExplorePlan plan;
        uint64_t done = 0;
        const PairedTiming timing = pairedMedian(
            kSweepPairs,
            // Exhaustive side: every (family, PD) cell, sequentially —
            // the simulate-everything baseline a sweep pays without the
            // model.
            [&] {
                return secondsOf([&] {
                    exhaustive.clear();
                    for (bool byp : {false, true})
                        for (uint32_t pd : grid)
                            exhaustive.push_back(perAccessRun(
                                bench, ctx.seed,
                                byp ? makeSpdpB(pd) : makeSpdpNb(pd),
                                config));
                });
            },
            // Pruned side: fingerprint the stream once, rank the whole
            // grid analytically, simulate only the contenders (plus the
            // audit cell) over one lockstep decode.
            [&] {
                const double seconds = secondsOf([&] {
                    auto fgen = SpecSuite::make(bench, ctx.seed);
                    FingerprintOptions fopt;
                    fopt.accesses = config.accesses;
                    fopt.warmup = config.warmup;
                    const RddFingerprint fp = fingerprintStream(*fgen, fopt);
                    plan = planExplore(fp, 3,
                                       seedFor(bench + "/explore-audit"));
                    std::vector<
                        std::function<std::unique_ptr<ReplacementPolicy>()>>
                        factories;
                    for (const ExploreCell &cell : plan.chosen)
                        factories.push_back(
                            [cell]() -> std::unique_ptr<ReplacementPolicy> {
                                return cell.bypass ? makeSpdpB(cell.pd)
                                                   : makeSpdpNb(cell.pd);
                            });
                    auto gen = SpecSuite::make(bench, ctx.seed);
                    contenders = runSingleCoreLockstep(*gen, config,
                                                       factories, threads);
                });
                done += plan.chosen.size() * config.accesses;
                return seconds;
            });

        // Winner reproduction per family: the pruned set must contain a
        // cell within 2% of the exhaustive miss minimum.
        for (bool byp : {false, true}) {
            uint64_t best_exh = ~0ull;
            const size_t base = byp ? grid.size() : 0;
            for (size_t g = 0; g < grid.size(); ++g)
                best_exh =
                    std::min(best_exh, exhaustive[base + g].llcMisses);
            uint64_t best_pruned = ~0ull;
            for (size_t c = 0; c < plan.chosen.size(); ++c)
                if (plan.chosen[c].bypass == byp)
                    best_pruned =
                        std::min(best_pruned, contenders[c].llcMisses);
            PDP_CHECK(best_pruned <= best_exh + best_exh / 50,
                      "explore pruning missed the ",
                      byp ? "SPDP-B" : "SPDP-NB", " winner: ", best_pruned,
                      " misses vs exhaustive ", best_exh);
        }

        uint64_t hits = 0, accesses = 0;
        for (const SimResult &r : contenders) {
            hits += r.llcHits;
            accesses += r.llcAccesses;
        }
        JobOutcome outcome;
        hotpathMetrics(outcome, done, timing.secondsB,
                       accesses ? static_cast<double>(hits) / accesses
                                : 0.0);
        outcome.metrics["explore_speedup"] = timing.medianRatio;
        outcome.metrics["explore_cells"] =
            static_cast<double>(2 * grid.size());
        outcome.metrics["explore_simulated"] =
            static_cast<double>(plan.chosen.size());
        // Lane fan-out of the pruned side's lockstep leg: check_perf
        // only enforces the absolute >= 10x floor when >= 4 lane
        // workers ran (the pruned side still replays 7 exact policies).
        outcome.metrics["explore_threads"] = static_cast<double>(threads);
        return outcome;
    };
    return job;
}

const std::vector<std::string> kHotpathPolicies = {"LRU", "DRRIP", "PDP-3"};

std::vector<Job>
buildHotpath(const SuiteOptions &options)
{
    std::vector<Job> jobs;
    for (const std::string &policy : kHotpathPolicies)
        jobs.push_back(
            hotpathCacheJob("hotpath/llc/" + policy, policy, options.scale));
    jobs.push_back(hotpathReferenceJob(options.scale));
    jobs.push_back(hotpathPartitionJob(options.scale));
    jobs.push_back(hotpathTelemetryIdleJob(options.scale));
    jobs.push_back(hotpathSweepJob(options.scale));
    jobs.push_back(hotpathExploreJob(options.scale));
    return jobs;
}

void
reportHotpath(std::ostream &out, const RecordLookup &records)
{
    out << "==== hotpath: cache-substrate throughput ====\n\n";

    Table table({"configuration", "Macc/s", "hit rate", "vs AoS"});
    std::vector<std::string> keys;
    for (const std::string &policy : kHotpathPolicies)
        keys.push_back("hotpath/llc/" + policy);
    keys.push_back("hotpath/llc/AoS-reference");
    keys.push_back("hotpath/shared/PDP-3-part-4c");
    keys.push_back("hotpath/llc/LRU-telemetry-idle");
    keys.push_back("hotpath/sweep/SPDP-B-grid");
    keys.push_back("hotpath/explore/SPDP-grid");
    for (const std::string &key : keys) {
        double aps = 0.0, hit_rate = 0.0, vs_aos = 0.0;
        if (!recordMetric(records, key, "accesses_per_sec", &aps)) {
            table.addRow({key, "n/a", "n/a", "n/a"});
            continue;
        }
        recordMetric(records, key, "hit_rate", &hit_rate);
        // vs_aos is the job's own paired-median ratio (rates measured
        // in different jobs are not comparable on a noisy machine); the
        // shared-LLC and AoS-anchor jobs have no paired twin.
        const bool paired =
            recordMetric(records, key, "vs_aos", &vs_aos) && vs_aos > 0;
        table.addRow({key, Table::num(aps / 1e6, 2), Table::upct(hit_rate),
                      paired ? Table::num(vs_aos, 2) + "x" : "-"});
    }
    table.print(out);

    const std::string idleKey = "hotpath/llc/LRU-telemetry-idle";
    double idle = 0.0, compiled = 0.0;
    if (recordMetric(records, idleKey, "telemetry_idle_ratio", &idle)) {
        recordMetric(records, idleKey, "telemetry_compiled", &compiled);
        out << "\ntelemetry idle overhead: plain/instrumented = "
            << Table::num(idle, 3) << "x (1.00 = free; telemetry "
            << (compiled > 0 ? "compiled in" : "compiled out") << ")\n";
    }

    const std::string sweepKey = "hotpath/sweep/SPDP-B-grid";
    double sweep = 0.0;
    if (recordMetric(records, sweepKey, "sweep_speedup", &sweep)) {
        double lanes = 0.0;
        recordMetric(records, sweepKey, "sweep_threads", &lanes);
        out << "lockstep 19-point SPDP-B sweep vs independent runs: "
            << Table::num(sweep, 2) << "x on "
            << static_cast<unsigned>(lanes) << " lane worker(s)\n";
    }
    const std::string exploreKey = "hotpath/explore/SPDP-grid";
    double explore = 0.0;
    if (recordMetric(records, exploreKey, "explore_speedup", &explore)) {
        double cells = 0.0, simmed = 0.0, lanes = 0.0;
        recordMetric(records, exploreKey, "explore_cells", &cells);
        recordMetric(records, exploreKey, "explore_simulated", &simmed);
        recordMetric(records, exploreKey, "explore_threads", &lanes);
        out << "model-pruned explore vs exhaustive "
            << static_cast<unsigned>(cells) << "-cell grid: "
            << Table::num(explore, 2) << "x ("
            << static_cast<unsigned>(simmed) << " cells simulated, "
            << static_cast<unsigned>(lanes) << " lane worker(s))\n";
    }

    out << "\nAoS = the frozen pre-SoA substrate (reference_cache.h); "
           "vs AoS = median of interleaved paired segments inside each "
           "job.\ntools/check_perf.py enforces LRU >= 2.00x, the "
           "lockstep sweep >= 4.00x (when >= 4 lane workers ran) and "
           "the committed-baseline regression bar in CI.\n";
}

// ---------------------------------------------------------------------------
// service — the multi-tenant cache-service mode (service/service_sim.h):
// one scripted open-loop tenant population, replayed identically under
// each shared policy, with per-tenant SLO attainment as the figure.

/** Policies the service scenario is replayed under.  LRU and TA-DRRIP
 *  run as unmanaged baselines; UCP and PDP-x implement
 *  TenantAwarePartition and repartition on every churn step. */
const std::vector<std::string> &
servicePolicies()
{
    static const std::vector<std::string> policies = {
        "LRU", "TA-DRRIP", "UCP", "PDP-2", "PDP-3"};
    return policies;
}

/** "service/t<tenants>c<churn>" — the scenario identity all policies of
 *  one run share (and seed from). */
std::string
serviceTag(const SuiteOptions &options)
{
    return "service/t" + std::to_string(options.serviceTenants) + "c" +
        std::to_string(options.serviceChurn);
}

/** The service grid as one wide lockstep group (key "<tag>/lockstep"):
 *  every service policy is a lane over ONE decode of the open-loop
 *  traffic (runServiceLockstep), one record per policy keyed
 *  "<tag>/<policy>" in policy order, identical to the serviceJobs. */
Job
serviceLockstepJob(const std::string &tag, std::vector<TenantSpec> tenants,
                   const ServiceConfig &config, uint64_t seed)
{
    Job job;
    job.key = tag + "/lockstep";
    job.seed = seed;
    job.wide = true;
    job.runMany = [tag, tenants = std::move(tenants),
                   config](const JobContext &ctx) {
        const std::vector<std::string> &policies = servicePolicies();
        std::vector<ServiceResult> results = runServiceLockstep(
            tenants, policies, config, ctx.seed, ctx.threads);
        std::vector<KeyedOutcome> outcomes(results.size());
        for (size_t p = 0; p < results.size(); ++p) {
            outcomes[p].key = tag + "/" + policies[p];
            outcomes[p].outcome.service = std::move(results[p]);
        }
        return outcomes;
    };
    return job;
}

std::vector<Job>
buildService(const SuiteOptions &options)
{
    ServiceConfig config;
    config.slots = options.serviceTenants;
    // One paper LLC per 4 tenants' worth of capacity: tenants contend
    // hard enough that partitioning matters, but the footprints fit.
    config.hierarchy.llc = CacheConfig::paperLlc(4);
    config.accesses = 6'000'000;
    config.warmup = 1'000'000;
    config.telemetry = telemetryConfig(options);
    config.faultAt = options.serviceFaultAt;
    config = config.scaled(options.scale);

    ServiceScenarioParams params;
    params.tenants = options.serviceTenants;
    params.churn = options.serviceChurn;
    params.accesses = config.accesses;

    const std::string tag = serviceTag(options);
    // The scenario (footprints, skews, SLOs, churn script) and every
    // tenant's stream derive from the same seed, so each policy sees
    // the identical open-loop traffic.
    const uint64_t seed = seedFor(tag);
    const std::vector<TenantSpec> tenants =
        buildServiceScenario(params, seed);

    // Like emitCells: one wide lockstep group over a single decode of
    // the traffic, unless observers or an injected fault ask for
    // per-policy jobs (their TRACE/FLIGHT artifacts are per job), or a
    // --filter names policies rather than the group.
    std::vector<Job> jobs;
    if (!config.telemetry.enabled && config.faultAt == 0 &&
        (tag + "/lockstep").find(options.filter) != std::string::npos) {
        jobs.push_back(serviceLockstepJob(tag, tenants, config, seed));
        return jobs;
    }
    for (const std::string &policy : servicePolicies())
        jobs.push_back(
            serviceJob(tag + "/" + policy, tenants, policy, config, seed));
    return jobs;
}

void
reportService(std::ostream &out, const RecordLookup &lookup)
{
    // The grid is option-parameterized ("service/t<N>c<M>/<policy>"), so
    // recover the scenario tag from the executed keys.
    const std::vector<std::string> keys = lookup.keys();
    if (keys.empty()) {
        out << "==== service: no records ====\n";
        return;
    }
    const std::string tag = keys.front().substr(0, keys.front().rfind('/'));

    out << "==== service: per-tenant SLO attainment (" << tag << ") ====\n";

    Table summary({"policy", "agg hit", "joins", "leaves", "reallocs",
                   "hitSLO", "latSLO", "mean drift"});
    for (const std::string &policy : servicePolicies()) {
        const ServiceResult *r = lookup.service(tag + "/" + policy);
        if (!r) {
            summary.addRow({policy, "-", "-", "-", "-", "-", "-", "-"});
            continue;
        }
        unsigned hitMet = 0, latMet = 0;
        Accumulator drift;
        for (const TenantOutcome &t : r->tenants) {
            hitMet += t.hitRateSloMet ? 1 : 0;
            latMet += t.latencySloMet ? 1 : 0;
            drift.add(t.occupancyDrift);
        }
        const std::string n = std::to_string(r->tenants.size());
        summary.addRow({policy + (r->tenantAware ? " *" : ""),
                        Table::num(r->aggregateHitRate, 3),
                        std::to_string(r->joins), std::to_string(r->leaves),
                        std::to_string(r->reallocs),
                        std::to_string(hitMet) + "/" + n,
                        std::to_string(latMet) + "/" + n,
                        Table::num(drift.mean(), 4)});
    }
    summary.print(out);
    out << "* = tenant-aware partition (quota tracks the policy's "
           "allocation; others measure drift vs an equal share)\n";

    // Per-tenant detail under the strongest tenant-aware policy.
    const std::string detailPolicy = "PDP-3";
    if (const ServiceResult *r = lookup.service(tag + "/" + detailPolicy)) {
        out << "\n---- " << detailPolicy << " per-tenant detail ----\n";
        Table detail({"tenant", "slot", "resident", "requests", "hit rate",
                      "p99 miss", "quota", "occ", "drift", "SLO"});
        for (const TenantOutcome &t : r->tenants) {
            const std::string slo =
                std::string(t.hitRateSloMet ? "h" : "-") +
                (t.latencySloMet ? "l" : "-");
            detail.addRow(
                {t.name, std::to_string(t.slot),
                 std::to_string(t.joinedAt) + ".." + std::to_string(t.leftAt),
                 std::to_string(t.requests), Table::num(t.hitRate, 3),
                 Table::num(t.p99MissCycles, 0), Table::num(t.meanQuota, 3),
                 Table::num(t.meanOccupancy, 3),
                 Table::num(t.occupancyDrift, 4), slo});
        }
        detail.print(out);
        out << "SLO column: h = hit-rate bound met, l = p99-latency "
               "bound met\n";
    }
}

} // namespace

const std::vector<Suite> &
allSuites()
{
    static const std::vector<Suite> suites = {
        {"fig1_rdd",
         "Fig. 1 + Fig. 5b: exact RDDs of selected benchmarks and of the "
         "three xalancbmk windows",
         buildFig1, reportFig1},
        {"fig2_epsilon", "Fig. 2: DRRIP misses vs the BRRIP epsilon",
         buildFig2, reportFig2},
        {"fig4_static_pdp",
         "Fig. 4 + Table 2: best-eps DRRIP vs static PDP (PD grids), and "
         "the distribution of optimal PDs",
         buildFig4, reportFig4},
        {"fig5a_occupancy",
         "Fig. 5a: LLC access/occupancy breakdown, DRRIP vs best static "
         "SPDP-NB/SPDP-B",
         buildFig5a, reportFig5a},
        {"fig6_model", "Fig. 6: the hit-rate model E(d_p) vs the measured "
         "hit rate",
         buildFig6, reportFig6},
        {"fig9_params",
         "Fig. 9: RD sampler size (Full vs Real) and counter step S_c",
         buildFig9, reportFig9},
        {"fig10_single_core",
         "Fig. 10: single-core replacement/bypass policies vs DIP",
         buildFig10, reportFig10},
        {"fig11_phases",
         "Fig. 11: PD recompute interval, policies and PD over time on the "
         "phased benchmarks",
         buildFig11, reportFig11},
        {"fig12_partitioning",
         "Fig. 12: 4-/16-core shared-cache partitioning vs TA-DRRIP",
         buildFig12, reportFig12},
        {"prefetch",
         "Sec. 6.5: prefetch-aware PDP under a stream prefetcher",
         buildPrefetch, reportPrefetch},
        {"hotpath",
         "cache-substrate throughput (SoA vs frozen AoS reference)",
         buildHotpath, reportHotpath},
        // No figure report: the generic per-job table from runSuite()
        // is the whole story for a sanity grid.
        {"smoke", "small single-/multi-core grid for CI smoke runs",
         buildSmoke, nullptr},
        {"service",
         "multi-tenant cache-service mode: open-loop tenants, churn, "
         "per-tenant SLOs",
         buildService, reportService},
        {"model_validation",
         "analytic estimator vs simulator: per-point |pred - sim| over "
         "the single-core workload set",
         buildModelValidation, reportModelValidation},
        {"explore",
         "static-PD design space: exhaustive grid, or model-pruned "
         "top-K contenders with --explore",
         buildExplore, reportExplore},
    };
    return suites;
}

const Suite *
findSuite(const std::string &name)
{
    for (const Suite &suite : allSuites())
        if (suite.name == name)
            return &suite;
    return nullptr;
}

namespace
{

void
genericReport(std::ostream &out, const std::vector<JobRecord> &records)
{
    Table table({"job", "status", "seconds", "ipc", "mpki", "W/T/H",
                 "svc hit/slo"});
    for (const JobRecord &record : records) {
        std::string ipc = "-", mpki = "-", wth = "-", svc = "-";
        if (record.outcome.single) {
            ipc = Table::num(record.outcome.single->ipc);
            mpki = Table::num(record.outcome.single->mpki);
        }
        if (record.outcome.multi) {
            const MultiCoreResult &m = *record.outcome.multi;
            wth = Table::num(m.weightedIpc) + "/" +
                Table::num(m.throughput) + "/" +
                Table::num(m.harmonicFairness);
        }
        if (record.outcome.service) {
            const ServiceResult &s = *record.outcome.service;
            unsigned met = 0;
            for (const TenantOutcome &t : s.tenants)
                met += (t.hitRateSloMet && t.latencySloMet) ? 1 : 0;
            svc = Table::num(s.aggregateHitRate, 3) + "/" +
                std::to_string(met) + "of" +
                std::to_string(s.tenants.size());
        }
        table.addRow({record.key, toString(record.status),
                      record.group.empty() ? Table::num(record.seconds, 2)
                                           : "group",
                      ipc, mpki, wth, svc});
    }
    table.print(out);
    // A runMany group's wall time is shared by all its records: print it
    // once per group, not once per record.
    for (const auto &[key, group] : groupTimes(records))
        out << "group " << key << ": " << group.records << " record(s) in "
            << Table::num(group.seconds, 2) << "s\n";
}

} // namespace

int
runSuite(const Suite &suite, const SuiteOptions &options, std::ostream &out)
{
    ProgressReporter &reporter = ProgressReporter::global();
    if (options.verbose)
        reporter.setVerbose(true);

    std::vector<Job> jobs = suite.buildJobs(options);
    if (!options.filter.empty()) {
        std::erase_if(jobs, [&](const Job &job) {
            return job.key.find(options.filter) == std::string::npos;
        });
    }

    ResultsSink sink(suite.name);
    sink.setScale(options.scale);
    sink.setDeterministicFile(options.deterministicJson);

    ExecutorOptions eopts;
    eopts.workers = options.workers;
    eopts.defaultTimeoutSeconds = options.timeoutSeconds;
    eopts.perfCounters = options.perfCounters;
    eopts.reporter = &reporter;
    eopts.onComplete = [&sink](const JobRecord &record) {
        sink.add(record);
    };
    ThreadPoolExecutor executor(eopts);
    sink.setWorkers(executor.workers());

    // Arm the fault flight recorder into the suite's output directory
    // for the duration of the run (scoped: unit tests that drive
    // throwing jobs directly still see the process default, disarmed).
    // When JSON output is disabled there is nowhere to dump, so the
    // recorder stays disarmed too.
    const std::string outDir = ResultsSink::outputDirectory(options.jsonDir);
    std::optional<check::ScopedFlightRecorder> flightArm;
    if (!outDir.empty())
        flightArm.emplace(outDir);

    reporter.beginBatch(suite.name, jobs.size(), executor.workers());
    const std::vector<JobRecord> records = executor.run(jobs);

    if (options.filter.empty() && suite.report) {
        suite.report(out, RecordLookup(records));
    } else {
        out << "==== " << suite.name;
        if (!options.filter.empty())
            out << " (filtered: \"" << options.filter << "\")";
        out << " ====\n";
        genericReport(out, records);
    }

    int notOk = 0;
    for (const JobRecord &record : records) {
        if (record.status == JobStatus::Ok)
            continue;
        ++notOk;
        out << "[runner] " << toString(record.status) << ": " << record.key
            << (record.error.empty() ? "" : " — " + record.error) << "\n";
    }

    if (options.telemetry || options.trace)
        sink.setRegistrySnapshot(
            telemetry::MetricsRegistry::global().snapshot());

    // A failed write counts like a failed job: the run's results are
    // lost, so the exit code must say so.
    int writeFailures = 0;
    const auto reportWrite = [&](bool wrote, const std::string &path) {
        if (wrote) {
            out << "[runner] wrote " << path << "\n";
        } else {
            out << "[runner] error: could not write " << path << "\n";
            ++writeFailures;
        }
    };
    if (!outDir.empty()) {
        std::string path;
        reportWrite(sink.writeFile(outDir, &path), path);
        if (options.trace)
            reportWrite(sink.writeTraceFile(outDir, &path), path);
    }
    out << "[runner] " << suite.name << ": "
        << (records.size() - static_cast<size_t>(notOk)) << "/"
        << records.size() << " job(s) ok on " << executor.workers()
        << " worker(s)\n";
    return notOk + writeFailures;
}

} // namespace runner
} // namespace pdp
