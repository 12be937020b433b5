#include "service/service_sim.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>

#include "cache/cache_stats.h"
#include "check/check.h"
#include "check/flight_recorder.h"
#include "check/invariant_auditor.h"
#include "partition/tenant_aware.h"
#include "service/slo_monitor.h"
#include "sim/lane_crew.h"
#include "sim/multi_core_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"
#include "trace/tenant_stream.h"
#include "util/stats.h"

namespace pdp
{

namespace
{

/** One scripted lifecycle edge. */
struct LifecycleEvent
{
    uint64_t at = 0;
    bool isJoin = false; //!< leaves sort before joins at equal `at`
    unsigned spec = 0;
};

/** A lifecycle edge as the front end resolved it: the slot is bound. */
struct TenantEvent
{
    unsigned spec = 0;
    unsigned slot = 0;
    bool isJoin = false;
};

/**
 * A run of requests with no edge inside.  Lanes apply, in order: the
 * warmup-to-measure transition, the lifecycle events, the requests,
 * and the SLO sample.
 */
struct ServiceChunk
{
    bool beginMeasure = false;
    std::vector<TenantEvent> events;
    /** Per request its opening op — the demand op, or an L2Hit marker
     *  when the slot's L2 served it — then any dirty L2 victim's
     *  writeback. */
    std::vector<LlcOp> ops;
    /** The last request completes an SLO sampling interval. */
    bool sampleSlo = false;
};

/**
 * p99 of the miss-latency observations added since `base`, as the
 * resolution-honest bucket upper edge; advances the baseline to now.
 * This is the sliding-interval view of TimingModel::missLatency() that
 * the burn-rate monitor scores, where the end-of-run TenantOutcome
 * reports the whole-residency quantile.
 */
double
intervalP99(const Log2Histogram &hist,
            std::array<uint64_t, Log2Histogram::kBuckets> &base,
            uint64_t &base_count)
{
    const uint64_t count = hist.count() - base_count;
    double p99 = 0.0;
    if (count > 0) {
        // rank = ceil(0.99 * count), clamped into [1, count]
        uint64_t rank = static_cast<uint64_t>(
            0.99 * static_cast<double>(count));
        if (static_cast<double>(rank) < 0.99 * static_cast<double>(count))
            ++rank;
        rank = std::max<uint64_t>(1, std::min(rank, count));
        uint64_t seen = 0;
        for (unsigned k = 0; k < Log2Histogram::kBuckets; ++k) {
            seen += hist.at(k) - base[k];
            if (seen >= rank) {
                p99 = static_cast<double>(Log2Histogram::upperEdge(k));
                break;
            }
        }
    }
    for (unsigned k = 0; k < Log2Histogram::kBuckets; ++k)
        base[k] = hist.at(k);
    base_count = hist.count();
    return p99;
}

double
eventField(unsigned v)
{
    return static_cast<double>(v);
}

uint64_t
sloIntervalOf(const ServiceConfig &config)
{
    return config.sloInterval > 0
        ? config.sloInterval
        : std::max<uint64_t>(16384, config.accesses / 64);
}

/**
 * The policy-independent half of a service run: the scripted lifecycle
 * and slot binding, the tenant streams and Poisson clocks, and the
 * per-slot L2s.  Every policy binds a joining tenant to the lowest free
 * slot, each slot's L2 is private plain LRU, and nothing the LLC decides
 * feeds back into the scheduler or an L2, so one front end serves every
 * lane.
 */
class ServiceFrontEnd
{
  public:
    ServiceFrontEnd(const std::vector<TenantSpec> &tenants,
                    const ServiceConfig &config, uint64_t seed)
        : tenants_(tenants), seed_(seed), slotOwner_(config.slots, -1),
          phases_(tenants.size(), Phase::Pending), gens_(tenants.size()),
          arrivals_(tenants.size(), std::numeric_limits<double>::infinity()),
          privateLevel_(config.hierarchy.l2, config.slots),
          warmupLeft_(config.warmup), accesses_(config.accesses),
          sloInterval_(sloIntervalOf(config))
    {
        // Scripted lifecycle, sorted by (access index, leaves-first,
        // spec).
        for (unsigned i = 0; i < tenants.size(); ++i) {
            lifecycle_.push_back({tenants[i].joinAt, true, i});
            if (tenants[i].leaveAt > 0) {
                PDP_CHECK(tenants[i].leaveAt > tenants[i].joinAt,
                          "tenant ", tenants[i].name, " leaves at ",
                          tenants[i].leaveAt, " before joining at ",
                          tenants[i].joinAt);
                lifecycle_.push_back({tenants[i].leaveAt, false, i});
            }
        }
        std::sort(lifecycle_.begin(), lifecycle_.end(),
                  [](const LifecycleEvent &a, const LifecycleEvent &b) {
                      if (a.at != b.at)
                          return a.at < b.at;
                      if (a.isJoin != b.isJoin)
                          return !a.isJoin; // leaves first
                      return a.spec < b.spec;
                  });
        // A clock depends on its seed alone, so building them all up
        // front draws the same arrivals as building each at its join.
        clocks_.reserve(tenants.size());
        for (unsigned spec = 0; spec < tenants.size(); ++spec)
            clocks_.emplace_back(hashMix64(streamSeed(spec) ^ 0xc10cc10cu),
                                 tenants[spec].arrivalRate);
    }

    /** Write the next chunk; false once the run is over. */
    bool
    fill(ServiceChunk &chunk)
    {
        chunk.beginMeasure = false;
        chunk.events.clear();
        chunk.ops.clear();
        chunk.ops.reserve(2 * kServiceChunkRequests);
        chunk.sampleSlo = false;

        if (!started_) {
            // Initial population, then the first warmup chunk.
            started_ = true;
            while (nextEvent_ < lifecycle_.size() &&
                   lifecycle_[nextEvent_].at == 0 &&
                   lifecycle_[nextEvent_].isJoin)
                join(lifecycle_[nextEvent_++].spec, chunk);
            PDP_CHECK(live_ > 0, "no tenant joins at access 0");
            return fillWarmup(chunk);
        }
        if (warmupLeft_ > 0)
            return fillWarmup(chunk);

        chunk.beginMeasure = !measureBegun_;
        measureBegun_ = true;
        if (drained_ || measured_ >= accesses_)
            return chunk.beginMeasure; // the transition alone, or done
        while (nextEvent_ < lifecycle_.size() &&
               lifecycle_[nextEvent_].at <= measured_) {
            const LifecycleEvent &ev = lifecycle_[nextEvent_++];
            if (ev.isJoin)
                join(ev.spec, chunk);
            else
                leave(ev.spec, chunk);
        }
        if (live_ == 0) {
            drained_ = true; // script drained the population early
            return true;
        }
        uint64_t n = std::min(accesses_ - measured_,
                              sloInterval_ - measured_ % sloInterval_);
        if (nextEvent_ < lifecycle_.size())
            n = std::min(n, lifecycle_[nextEvent_].at - measured_);
        n = std::min(n, kServiceChunkRequests);
        serve(n, chunk);
        measured_ += n;
        chunk.sampleSlo = measured_ % sloInterval_ == 0;
        return true;
    }

  private:
    uint64_t
    streamSeed(unsigned spec) const
    {
        return hashMix64(seed_ ^ (0x7e4a7c15u + 2u * spec));
    }

    bool
    fillWarmup(ServiceChunk &chunk)
    {
        const uint64_t n = std::min(warmupLeft_, kServiceChunkRequests);
        serve(n, chunk);
        warmupLeft_ -= n;
        return true;
    }

    void
    join(unsigned spec, ServiceChunk &chunk)
    {
        PDP_CHECK(phases_[spec] == Phase::Pending, "tenant ",
                  tenants_[spec].name, " joined twice");
        int slot = -1;
        for (unsigned s = 0; s < slotOwner_.size(); ++s)
            if (slotOwner_[s] < 0) {
                slot = static_cast<int>(s);
                break;
            }
        PDP_CHECK(slot >= 0, "no free tenant slot for ",
                  tenants_[spec].name, " (", live_, " live of ",
                  slotOwner_.size(), ")");
        slotOwner_[slot] = static_cast<int>(spec);
        phases_[spec] = Phase::Live;
        ++live_;

        const TenantSpec &t = tenants_[spec];
        // Disjoint per-tenant address windows: spec index in the high
        // bits, footprints far below 2^32 lines.
        const uint64_t addrBase = (static_cast<uint64_t>(spec) + 1) << 32;
        gens_[spec] = std::make_unique<TenantStreamGenerator>(
            t.name, streamSeed(spec), t.footprintLines, t.zipfAlpha,
            addrBase, t.meanGap, t.writeFrac);
        gens_[spec]->setThreadId(static_cast<uint8_t>(slot));
        arrivals_[spec] = clocks_[spec].nextArrival();
        chunk.events.push_back({spec, static_cast<unsigned>(slot), true});
    }

    void
    leave(unsigned spec, ServiceChunk &chunk)
    {
        PDP_CHECK(phases_[spec] == Phase::Live, "tenant ",
                  tenants_[spec].name, " left while not live");
        const auto owner = std::find(slotOwner_.begin(), slotOwner_.end(),
                                     static_cast<int>(spec));
        const unsigned slot =
            static_cast<unsigned>(owner - slotOwner_.begin());
        *owner = -1;
        gens_[spec].reset();
        phases_[spec] = Phase::Left;
        arrivals_[spec] = std::numeric_limits<double>::infinity();
        --live_;
        chunk.events.push_back({spec, slot, false});
    }

    /** Serve `n` requests, each from the earliest pending arrival
     *  (ties: lowest spec), through the tenant's slot L2. */
    void
    serve(uint64_t n, ServiceChunk &chunk)
    {
        PDP_CHECK(n == 0 || live_ > 0, "open-loop step with no live tenant");
        const double *arrivals = arrivals_.data();
        const size_t specs = arrivals_.size();
        for (uint64_t i = 0; i < n; ++i) {
            size_t pick = 0;
            double earliest = arrivals[0];
            for (size_t s = 1; s < specs; ++s)
                if (arrivals[s] < earliest) {
                    earliest = arrivals[s];
                    pick = s;
                }
            const Access access = gens_[pick]->next();
            PoissonProcess &clock = clocks_[pick];
            clock.advance();
            arrivals_[pick] = clock.nextArrival();

            privateLevel_.walk(access, [&](const LlcOp &op) {
                chunk.ops.push_back(op);
            });
        }
    }

    const std::vector<TenantSpec> &tenants_;
    uint64_t seed_;
    std::vector<LifecycleEvent> lifecycle_;
    size_t nextEvent_ = 0;
    /** slotOwner_[s] = spec index of the live tenant on slot s, or -1. */
    std::vector<int> slotOwner_;
    unsigned live_ = 0;
    enum class Phase : uint8_t { Pending, Live, Left };
    std::vector<Phase> phases_;
    std::vector<std::unique_ptr<TenantStreamGenerator>> gens_;
    std::vector<PoissonProcess> clocks_;
    /** Pending arrival per spec; +inf while the tenant is not live. */
    std::vector<double> arrivals_;
    PrivateLevel privateLevel_;
    uint64_t warmupLeft_;
    uint64_t accesses_;
    uint64_t sloInterval_;
    uint64_t measured_ = 0;
    bool started_ = false;
    bool measureBegun_ = false;
    bool drained_ = false;
};

/** One lane's view of a tenant: timing, stats baselines, SLO samples. */
struct LaneTenant
{
    bool live = false;
    unsigned slot = 0;
    TimingModel timer;
    /** LLC per-thread stats at join (delta baseline). */
    uint64_t baseAccesses = 0;
    uint64_t baseHits = 0;
    uint64_t baseMisses = 0;
    uint64_t requests = 0;
    uint64_t joinedAt = 0;
    Accumulator quota;
    Accumulator occupancy;
    Accumulator drift;
    /** Per-SLO-interval delta baselines (burn-rate inputs). */
    uint64_t sloBaseAccesses = 0;
    uint64_t sloBaseHits = 0;
    std::array<uint64_t, Log2Histogram::kBuckets> sloLatBase{};
    uint64_t sloLatBaseCount = 0;
};

/**
 * Everything one policy affects: the LLC and its policy (with
 * TenantAwarePartition join/leave), per-tenant timing and SLO state,
 * the burn-rate monitor, quota-change detection, the fault-injection
 * check, and the observers the config asks for.  A lane is touched by
 * one thread at a time and sees every chunk in order.
 */
class ServiceLane
{
  public:
    ServiceLane(const std::vector<TenantSpec> &tenants,
                const std::string &policy_spec, const ServiceConfig &config,
                uint64_t seed, std::string job_key)
        : tenants_(tenants), config_(config), jobKey_(std::move(job_key)),
          state_(tenants.size()), slotOwner_(config.slots, -1)
    {
        auto policy = makeSharedPolicy(policy_spec, config.slots);
        ta_ = dynamic_cast<TenantAwarePartition *>(policy.get());
        llc_ = std::make_unique<Cache>(config.hierarchy.llc,
                                       std::move(policy));
        totalLines_ = static_cast<uint64_t>(llc_->numSets()) *
            llc_->numWays();

        if (config.auditEvery > 0) {
            InvariantAuditor::Options opts;
            opts.cadence = config.auditEvery;
            opts.failFast = config.auditFailFast;
            auditor_ = std::make_unique<InvariantAuditor>(opts);
            auditor_->watchCache(*llc_);
        }
        if (config.telemetry.enabled)
            sampler_ = std::make_unique<telemetry::EpochSampler>(
                config.telemetry, *llc_, config.accesses, config.slots);
        trace_ = sampler_ ? sampler_->trace() : nullptr;
        // Request-lifecycle span tracing (observability plane): spans
        // ride the event ring, so the tracer needs --trace AND a nonzero
        // sample rate.  Its seed branches off the run seed on a tag no
        // generator uses, so tracing on/off never perturbs the traffic.
        if (trace_ && config.telemetry.spanSampleRate > 0.0)
            tracer_ = std::make_unique<telemetry::SpanTracer>(
                trace_, hashMix64(seed ^ 0x5fa17ce1dULL),
                config.telemetry.spanSampleRate);
        monitor_.emplace(SloMonitorConfig{config.sloWindow, config.sloBudget},
                         config.slots, trace_);

        result_.policy = policy_spec;
        result_.tenantAware = ta_ != nullptr;
        result_.tenants.resize(tenants.size());
        if (ta_)
            ta_->beginTenantMode();
        phase_.emplace(trace_, "warmup");
    }

    /** Replay one chunk.  Crash forensics: a failure unwinds through a
     *  FlightScope while the event ring and any open span are alive,
     *  after the open phase timer has recorded its event. */
    void
    walk(const ServiceChunk &chunk)
    {
        // Helper threads carry no job key of their own: dumps name the
        // job that started the run.
        if (check::FlightRecorder::jobKey() != jobKey_)
            check::FlightRecorder::setJobKey(jobKey_);
        check::FlightScope flight(trace_, tracer_.get());
        try {
            walkChunk(chunk);
        } catch (...) {
            phase_.reset();
            throw;
        }
    }

    /** Close the run and return its result. */
    ServiceResult
    finish()
    {
        check::FlightScope flight(trace_, tracer_.get());
        phase_.reset();
        // Tenants still resident at the end: close their residency.
        for (unsigned i = 0; i < tenants_.size(); ++i)
            if (state_[i].live)
                finalizeTenant(i, measured_);

        result_.aggregateHitRate = llc_->stats().hitRate();
        if (auditor_) {
            llc_->setAuditor(nullptr);
            auditor_->auditNow();
            result_.auditsRun = auditor_->auditsRun();
            result_.auditViolations = auditor_->totalViolations();
        }
        if (tracer_)
            result_.spansSampled = tracer_->sampled();
        if (sampler_) {
            sampler_->finish();
            result_.telemetry = std::make_shared<telemetry::RunTelemetry>(
                sampler_->take());
        }
        return std::move(result_);
    }

  private:
    void
    walkChunk(const ServiceChunk &chunk)
    {
        if (chunk.beginMeasure)
            beginMeasurement();
        for (const TenantEvent &event : chunk.events) {
            if (event.isJoin)
                join(event);
            else
                leave(event);
        }
        const std::vector<LlcOp> &ops = chunk.ops;
        for (size_t i = 0; i < ops.size(); ++i) {
            const LlcOp &req = ops[i]; // opens its request
            const unsigned spec =
                static_cast<unsigned>(slotOwner_[req.threadId]);
            LaneTenant &ts = state_[spec];
            // Span open/close brackets the access so a fault inside it
            // (an injected one below, or a real PDP_CHECK in the LLC)
            // leaves the request's root span open for the flight
            // recorder.
            const bool spanned = tracer_ && measuring_ &&
                tracer_->beginRequest(spec, ts.slot, ts.requests, measured_,
                                      ts.timer.cycles());
            PDP_CHECK(!measuring_ || config_.faultAt == 0 ||
                          measured_ + 1 != config_.faultAt,
                      "injected service fault at measured access ",
                      config_.faultAt, " (ServiceConfig::faultAt)");
            HitLevel level = HitLevel::L2;
            bool bypassed = false;
            if (req.kind == LlcOp::Demand) {
                const AccessOutcome out =
                    llc_->access(req.context(llc_->setIndex(req.lineAddr)));
                level = out.hit ? HitLevel::Llc : HitLevel::Memory;
                bypassed = out.bypassed;
                if (i + 1 < ops.size() && !ops[i + 1].opensAccess())
                    applyNonDemand(*llc_, ops[++i]);
            }
            if (sampler_ && measuring_)
                sampler_->onAccess();
            ts.timer.onAccess(req.gap, level);
            if (spanned)
                tracer_->endRequest(level, bypassed, measured_,
                                    ts.timer.cycles());
            ++ts.requests;
            if (measuring_)
                ++measured_;
        }
        if (chunk.sampleSlo)
            sampleSlo();
    }

    std::vector<double>
    currentQuotas() const
    {
        if (ta_)
            return ta_->tenantQuotas();
        // Unmanaged baseline: fairness target is an equal share.
        std::vector<double> q(config_.slots, 0.0);
        if (live_ > 0)
            for (unsigned s = 0; s < config_.slots; ++s)
                if (slotOwner_[s] >= 0)
                    q[s] = 1.0 / live_;
        return q;
    }

    void
    snapshotBase(LaneTenant &ts)
    {
        const CacheStats &stats = llc_->stats();
        ts.baseAccesses = stats.threadAccesses[ts.slot];
        ts.baseHits = stats.threadHits[ts.slot];
        ts.baseMisses = stats.threadMisses[ts.slot];
        ts.sloBaseAccesses = ts.baseAccesses;
        ts.sloBaseHits = ts.baseHits;
        // Callers reset the timer alongside the stats baseline, so the
        // miss-latency interval baseline restarts from empty.
        ts.sloLatBase.fill(0);
        ts.sloLatBaseCount = 0;
    }

    /** Enter the measured phase: discard warmup stats, restart timing. */
    void
    beginMeasurement()
    {
        phase_.reset();
        llc_->resetStats();
        for (LaneTenant &ts : state_) {
            if (!ts.live)
                continue;
            ts.timer = TimingModel(config_.timing);
            ts.requests = 0;
            snapshotBase(ts);
        }
        if (auditor_)
            llc_->setAuditor(auditor_.get());
        if (sampler_)
            sampler_->beginMeasurement();
        measuring_ = true;
        lastQuotas_ = currentQuotas();
        phase_.emplace(trace_, "measure");
    }

    void
    join(const TenantEvent &event)
    {
        if (ta_) {
            const int slot = ta_->tenantJoin();
            PDP_CHECK(slot == static_cast<int>(event.slot), "policy ",
                      result_.policy, " bound ", tenants_[event.spec].name,
                      " to slot ", slot, ", the front end to slot ",
                      event.slot);
        }
        LaneTenant &ts = state_[event.spec];
        ts.live = true;
        ts.slot = event.slot;
        slotOwner_[event.slot] = static_cast<int>(event.spec);
        ++live_;

        const TenantSpec &t = tenants_[event.spec];
        ts.timer = TimingModel(config_.timing);
        ts.requests = 0;
        ts.joinedAt = measured_;
        snapshotBase(ts);
        monitor_->attach(event.slot, event.spec,
                         {t.slo.minHitRate, t.slo.maxP99MissCycles});

        ++result_.joins;
        ++result_.reallocs;
        telemetry::MetricsRegistry::global()
            .counter("service.joins").add();
        if (trace_ && measuring_) {
            trace_->record({"tenant_join", measured_, false,
                            {{"tenant", eventField(event.spec)},
                             {"slot", eventField(event.slot)},
                             {"active", eventField(live_)}}});
            trace_->record({"partition_realloc", measured_, false,
                            {{"cause", 0.0},
                             {"active", eventField(live_)}}});
        }
        lastQuotas_ = currentQuotas();
    }

    void
    finalizeTenant(unsigned spec, uint64_t leftAt)
    {
        const LaneTenant &ts = state_[spec];
        const TenantSpec &t = tenants_[spec];
        const CacheStats &stats = llc_->stats();
        TenantOutcome &out = result_.tenants[spec];
        out.name = t.name;
        out.slot = ts.slot;
        out.joinedAt = ts.joinedAt;
        out.leftAt = leftAt;
        out.requests = ts.requests;
        out.llcAccesses = stats.threadAccesses[ts.slot] - ts.baseAccesses;
        out.llcHits = stats.threadHits[ts.slot] - ts.baseHits;
        out.llcMisses = stats.threadMisses[ts.slot] - ts.baseMisses;
        out.hitRate = out.llcAccesses
            ? static_cast<double>(out.llcHits) / out.llcAccesses
            : 0.0;
        out.ipc = ts.timer.ipc();
        out.p99MissCycles =
            static_cast<double>(ts.timer.missLatency().quantile(0.99));
        out.meanQuota = ts.quota.mean();
        out.meanOccupancy = ts.occupancy.mean();
        out.occupancyDrift = ts.drift.mean();
        out.hitRateSloMet = t.slo.minHitRate <= 0.0 ||
            out.hitRate >= t.slo.minHitRate;
        out.latencySloMet = t.slo.maxP99MissCycles <= 0.0 ||
            out.p99MissCycles <= t.slo.maxP99MissCycles;
        const SloBurnStats &burn = monitor_->stats(ts.slot);
        out.sloBurnEvents = burn.burnEvents;
        out.sloRecoveredEvents = burn.recoveredEvents;
        out.maxBurnRate = burn.maxBurnRate;
    }

    void
    leave(const TenantEvent &event)
    {
        LaneTenant &ts = state_[event.spec];
        PDP_CHECK(ts.live && ts.slot == event.slot, "tenant ",
                  tenants_[event.spec].name, " left while not live");
        finalizeTenant(event.spec, measured_);
        monitor_->detach(ts.slot);
        if (ta_)
            ta_->tenantLeave(ts.slot);
        slotOwner_[ts.slot] = -1;
        ts.live = false;
        --live_;

        ++result_.leaves;
        ++result_.reallocs;
        telemetry::MetricsRegistry::global()
            .counter("service.leaves").add();
        if (trace_) {
            trace_->record({"tenant_leave", measured_, false,
                            {{"tenant", eventField(event.spec)},
                             {"slot", eventField(ts.slot)},
                             {"active", eventField(live_)}}});
            trace_->record({"partition_realloc", measured_, false,
                            {{"cause", 1.0},
                             {"active", eventField(live_)}}});
        }
        lastQuotas_ = currentQuotas();
    }

    void
    sampleSlo()
    {
        if (live_ == 0)
            return;
        const std::vector<double> quotas = currentQuotas();
        std::vector<uint64_t> owned(config_.slots, 0);
        for (uint32_t set = 0; set < llc_->numSets(); ++set)
            for (uint32_t way = 0; way < llc_->numWays(); ++way)
                if (llc_->isValid(set, way)) {
                    const unsigned t = llc_->lineThread(set, way);
                    if (t < config_.slots)
                        ++owned[t];
                }
        const CacheStats &stats = llc_->stats();
        for (unsigned s = 0; s < config_.slots; ++s) {
            if (slotOwner_[s] < 0)
                continue;
            LaneTenant &ts = state_[slotOwner_[s]];
            const double occ = static_cast<double>(owned[s]) /
                static_cast<double>(totalLines_);
            const double q = quotas[s];
            ts.quota.add(q);
            ts.occupancy.add(occ);
            ts.drift.add(occ > q ? occ - q : q - occ);

            // Burn-rate scoring sees this interval's deltas, not the
            // residency cumulative: a tenant that degrades late must
            // start burning even if its average still clears the bar.
            const uint64_t intervalAccesses =
                stats.threadAccesses[s] - ts.sloBaseAccesses;
            const uint64_t intervalHits =
                stats.threadHits[s] - ts.sloBaseHits;
            monitor_->observe(
                s, measured_, intervalAccesses,
                intervalAccesses ? static_cast<double>(intervalHits) /
                        static_cast<double>(intervalAccesses)
                                 : 0.0,
                intervalP99(ts.timer.missLatency(), ts.sloLatBase,
                            ts.sloLatBaseCount));
            ts.sloBaseAccesses = stats.threadAccesses[s];
            ts.sloBaseHits = stats.threadHits[s];
        }
        // A quota vector that moved since the last look is a periodic
        // reallocation (the PD-recompute / UMON clock fired).
        if (quotas != lastQuotas_) {
            ++result_.reallocs;
            telemetry::MetricsRegistry::global()
                .counter("service.reallocs").add();
            if (trace_)
                trace_->record({"partition_realloc", measured_, false,
                                {{"cause", 2.0},
                                 {"active", eventField(live_)}}});
            lastQuotas_ = quotas;
        }
    }

    const std::vector<TenantSpec> &tenants_;
    const ServiceConfig &config_;
    std::string jobKey_;
    std::unique_ptr<Cache> llc_;
    TenantAwarePartition *ta_ = nullptr;
    uint64_t totalLines_ = 0;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<telemetry::EpochSampler> sampler_;
    telemetry::EventTrace *trace_ = nullptr;
    std::unique_ptr<telemetry::SpanTracer> tracer_;
    std::optional<SloMonitor> monitor_;
    /** The open "warmup" or "measure" phase timer. */
    std::optional<telemetry::ScopedPhaseTimer> phase_;
    ServiceResult result_;
    std::vector<LaneTenant> state_;
    /** slotOwner_[s] = spec index of the live tenant on slot s, or -1. */
    std::vector<int> slotOwner_;
    unsigned live_ = 0;
    uint64_t measured_ = 0;
    bool measuring_ = false;
    std::vector<double> lastQuotas_;
};

} // namespace

std::vector<ServiceResult>
runServiceLockstep(const std::vector<TenantSpec> &tenants,
                   const std::vector<std::string> &policy_specs,
                   const ServiceConfig &config, uint64_t seed,
                   unsigned threads)
{
    PDP_CHECK(!tenants.empty(), "service run with no tenants");
    PDP_CHECK(config.slots >= 1 &&
                  config.slots <= CacheStats::kMaxThreads,
              "service slots ", config.slots, " outside [1, ",
              CacheStats::kMaxThreads, "]");
    if (policy_specs.empty())
        return {};

    ServiceFrontEnd frontEnd(tenants, config, seed);
    std::vector<std::unique_ptr<ServiceLane>> lanes;
    lanes.reserve(policy_specs.size());
    for (const std::string &spec : policy_specs)
        lanes.push_back(std::make_unique<ServiceLane>(
            tenants, spec, config, seed, check::FlightRecorder::jobKey()));

    driveLanes<ServiceChunk>(
        lanes.size(), threads,
        [&](ServiceChunk &chunk) { return frontEnd.fill(chunk); },
        [&](size_t lane, const ServiceChunk &chunk) {
            lanes[lane]->walk(chunk);
        });

    std::vector<ServiceResult> results;
    results.reserve(lanes.size());
    for (auto &lane : lanes)
        results.push_back(lane->finish());
    return results;
}

ServiceResult
runService(const std::vector<TenantSpec> &tenants,
           const std::string &policy_spec, const ServiceConfig &config,
           uint64_t seed)
{
    return std::move(
        runServiceLockstep(tenants, {policy_spec}, config, seed).front());
}

} // namespace pdp
