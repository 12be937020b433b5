/**
 * @file
 * The epoch sampler: periodically snapshots the LLC's policy internals,
 * interval stats deltas and per-thread occupancy into a RunTelemetry
 * time-series, and derives structured events (PD change, PSEL flip,
 * partition reallocation, epoch rollover) by differencing consecutive
 * snapshots.
 *
 * The interval is anchored to the PD-recompute clock: a PdpPolicy source
 * recomputes every PdpParams::recomputeInterval accesses, so the default
 * (interval = 0, "auto") samples at min(recomputeInterval, max(4096,
 * accesses/16)) — the recompute cadence at full scale, and still >= 16
 * epochs on scaled-down CI runs whose access budget never reaches the
 * first recompute.
 *
 * Cost model: onAccess() is one increment and one compare; everything
 * else happens once per epoch, off the cache hot path (the sampler walks
 * the tag store and calls the policy's Source hook between accesses).
 */

#ifndef PDP_TELEMETRY_EPOCH_SAMPLER_H
#define PDP_TELEMETRY_EPOCH_SAMPLER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "hw/perf_counters.h"
#include "telemetry/event_trace.h"
#include "telemetry/source.h"

namespace pdp
{
namespace telemetry
{

/** Per-run telemetry knobs (SimConfig::telemetry). */
struct TelemetryConfig
{
    /** Master switch: off = no sampler is constructed at all. */
    bool enabled = false;
    /** Also derive + record structured events (the --trace flag). */
    bool traceEvents = false;
    /** Accesses between epoch samples; 0 = auto (see file comment). */
    uint64_t interval = 0;
    /** Hard cap on recorded epochs (newest kept; guards long runs). */
    size_t maxEpochs = 8192;
    /** Event ring capacity. */
    size_t traceCapacity = 4096;
    /** Request-span head-sampling rate in [0, 1] (--obs-sample-rate);
     *  0 disables the SpanTracer.  Only meaningful with traceEvents. */
    double spanSampleRate = 0.0;
    /** Snapshot hardware perf counters per epoch (--perf-counters);
     *  degrades to no-op where perf_event_open is unavailable. */
    bool perfCounters = false;
};

/** One epoch's sample. */
struct EpochRecord
{
    uint64_t epoch = 0;
    /** Measured accesses completed when the sample was taken. */
    uint64_t accessCount = 0;
    /** LLC stats deltas over this epoch (demand accesses). */
    uint64_t intervalAccesses = 0;
    uint64_t intervalHits = 0;
    uint64_t intervalMisses = 0;
    uint64_t intervalBypasses = 0;
    /** The policy's Source snapshot (empty when the policy exports
     *  nothing). */
    Snapshot policy;
    /** Valid lines per thread (single element for single-thread runs). */
    std::vector<uint64_t> threadOccupancy;
    /** Hardware counter deltas over this epoch.  hw.valid is false
     *  unless perfCounters is on AND the syscall backend opened; the
     *  reading is volatile (host-dependent) and never serialized into
     *  deterministic dumps. */
    hw::PerfReading hw;
};

/** Everything one run recorded. */
struct RunTelemetry
{
    /** The sampling interval actually used. */
    uint64_t interval = 0;
    std::vector<EpochRecord> epochs;
    /** Epochs discarded because maxEpochs was reached (oldest first). */
    uint64_t epochsDropped = 0;
    /** Structured events, chronological (empty unless traceEvents). */
    std::vector<TraceEvent> events;
    uint64_t eventsDropped = 0;
};

/** Drives epoch sampling for one simulation run. */
class EpochSampler
{
  public:
    /**
     * @param config knobs (config.enabled is assumed true)
     * @param llc the observed cache; must outlive the sampler
     * @param planned_accesses the run's measured-access budget (auto
     *        interval derivation)
     * @param num_threads threads sharing the cache (occupancy vector)
     */
    EpochSampler(const TelemetryConfig &config, const Cache &llc,
                 uint64_t planned_accesses, unsigned num_threads = 1);

    /** Reset the stats baseline; call right after Cache/Hierarchy stats
     *  are reset so interval deltas start from zero. */
    void beginMeasurement();

    /** Per-measured-access tick (cheap: increment + compare). */
    void
    onAccess()
    {
        ++accessCount_;
        if (++sinceSample_ >= interval_) {
            sinceSample_ = 0;
            sample();
        }
    }

    /** Record the final partial epoch (if any accesses are pending). */
    void finish();

    uint64_t interval() const { return interval_; }

    /** The event ring, or nullptr when traceEvents is off. */
    EventTrace *trace() { return trace_ ? trace_.get() : nullptr; }

    /** Move the collected telemetry out (call once, after finish()). */
    RunTelemetry take();

  private:
    void sample();
    void deriveEvents(const EpochRecord &current);

    TelemetryConfig config_;
    const Cache &llc_;
    const Source *source_;
    unsigned numThreads_;
    uint64_t interval_;
    uint64_t accessCount_ = 0;
    uint64_t sinceSample_ = 0;
    /** Stats values at the previous sample (delta baseline). */
    uint64_t baseAccesses_ = 0;
    uint64_t baseHits_ = 0;
    uint64_t baseMisses_ = 0;
    uint64_t baseBypasses_ = 0;
    RunTelemetry run_;
    std::unique_ptr<EventTrace> trace_;
    /** Hardware counter group (null backend off-Linux / locked-down
     *  hosts); readings are per-epoch deltas vs perfBase_. */
    std::unique_ptr<hw::PerfCounterGroup> perf_;
    hw::PerfReading perfBase_;
    /** Previous epoch's policy snapshot (event derivation). */
    Snapshot prev_;
    bool havePrev_ = false;
};

} // namespace telemetry
} // namespace pdp

#endif // PDP_TELEMETRY_EPOCH_SAMPLER_H
