/**
 * @file
 * PDP — the Protecting Distance based replacement and bypass Policy
 * (Sec. 2), in both its static (SPDP-NB / SPDP-B) and dynamic (PDP-n_c)
 * forms.
 *
 * Every line carries a remaining protecting distance (RPD), set to the
 * current PD on insertion and promotion.  Each access to a set decrements
 * the RPDs of all its lines (in units of the distance step S_d when the
 * per-line field is narrower than log2(d_max) bits).  A line is protected
 * while its RPD is nonzero.  Victims are chosen among unprotected lines;
 * when none exists, a bypass-enabled (non-inclusive) cache bypasses the
 * fill, while an inclusive cache evicts the inserted (never reused) line
 * with the highest RPD, falling back to the reused line with the highest
 * RPD.
 *
 * The dynamic form measures the RDD with the RD sampler, and every
 * `recomputeInterval` accesses sets PD = argmax E(d_p) via the hit-rate
 * model, then resets the counter array (Sec. 3).
 */

#ifndef PDP_CORE_PDP_POLICY_H
#define PDP_CORE_PDP_POLICY_H

#include <cstdint>
#include <memory>
#include <vector>

#include "check/contracts.h"
#include "core/hit_rate_model.h"
#include "core/rd_sampler.h"
#include "core/rdd.h"
#include "policies/replacement_policy.h"
#include "telemetry/source.h"

namespace pdp
{

/** Configuration of a PDP cache policy. */
struct PdpParams
{
    /** Dynamic PD recomputation (false = static PD). */
    bool dynamic = true;
    /** The PD used when dynamic == false. */
    uint32_t staticPd = 64;
    /** Allow bypass (requires a non-inclusive cache). */
    bool bypass = true;
    /** Bits per line for the RPD field (n_c); sets S_d = d_max / 2^n_c. */
    unsigned ncBits = 8;
    /** Maximum protecting distance d_max. */
    uint32_t dMax = 256;
    /** Counter-array step S_c. */
    uint32_t counterStep = 4;
    /** Accesses between PD recomputations (paper: 512K). */
    uint64_t recomputeInterval = 512 * 1024;
    /** First recomputation happens early so short windows (and fresh
     *  program phases) get a measured PD quickly. */
    uint64_t firstRecompute = 192 * 1024;
    /** Accesses ignored by the sampler at startup, so the RDD is not
     *  polluted by cold-cache compulsory traffic from the level above. */
    uint64_t samplerWarmup = 64 * 1024;
    /** RD sampler configuration. */
    RdSamplerParams sampler{};
    /** Eviction slack d_e; 0 selects the associativity W. */
    uint32_t de = 0;
    /** PD used before the first recomputation. */
    uint32_t initialPd = 128;
    /** Minimum sampled accesses (N_t) for a recomputation to be trusted;
     *  below this the previous PD is kept. */
    uint32_t minSamples = 192;
    /** Minimum recorded reuse hits for a recomputation to be trusted —
     *  a window shorter than the dominant reuse lap has an empty RDD. */
    uint32_t minHits = 64;
    /** Sec. 6.3 variant: insert missed lines with PD = 1. */
    bool insertWithPdOne = false;

    /** Sec. 6.5 prefetch handling. */
    enum class PrefetchMode { Normal, InsertPdOne, Bypass };
    PrefetchMode prefetchMode = PrefetchMode::Normal;
};

/** A PD recomputation event (for Fig. 11c's PD-over-time series). */
struct PdSample
{
    uint64_t accessCount;
    uint32_t pd;
};

/** The PDP replacement/bypass policy. */
class PdpPolicy : public ReplacementPolicy, public telemetry::Source
{
  public:
    explicit PdpPolicy(PdpParams params = PdpParams());

    const std::string &name() const override { return name_; }
    bool usesBypass() const override { return params_.bypass; }

    void attach(Cache &cache, uint32_t num_sets, uint32_t num_ways) override;
    void onHit(const AccessContext &ctx, int way) override;
    int selectVictim(const AccessContext &ctx) override;
    void onInsert(const AccessContext &ctx, int way) override;
    void onBypass(const AccessContext &ctx) override;

    void auditGlobal(InvariantReporter &reporter) const override;
    void auditSet(uint32_t set, InvariantReporter &reporter) const override;

    /** Epoch telemetry: PD, RDD histogram and the E(d_p) curve. */
    void telemetrySnapshot(telemetry::Snapshot &out) const override;

    /** Current protecting distance. */
    uint32_t pd() const { return pd_; }

    /** Distance step implied by n_c. */
    uint32_t distanceStep() const { return sd_; }

    /** History of recomputed PDs (dynamic mode). */
    const std::vector<PdSample> &pdHistory() const { return history_; }

    const PdpParams &params() const { return params_; }

    /** Read access to the live counter array (diagnostics, partitioning). */
    const RdCounterArray &counterArray() const { return *rdd_; }

    // --- fault-injection hooks for the checker tests ---
    uint8_t
    debugRpd(uint32_t set, int way) const
    {
        return rpds_[static_cast<size_t>(set) * numWays_ + way];
    }
    void debugSetRpd(uint32_t set, int way, uint8_t value);
    RdCounterArray &debugCounterArray() { return *rdd_; }

  protected:
    /** PD to protect lines of this access with (per-thread in the
     *  partitioned subclass). */
    virtual uint32_t currentPd(const AccessContext &ctx) const;

    /** Route one sampler observation into a counter array. */
    virtual void recordObservation(const AccessContext &ctx,
                                   const RdObservation &obs);

    /** Recompute the PD(s) from the collected RDD(s). */
    virtual void recompute();

    /** RPD field value protecting for `pd` accesses (clamped to n_c). */
    uint8_t protectValue(uint32_t pd) const;

    uint8_t &rpd(uint32_t set, int way)
    {
        return rpds_[static_cast<size_t>(set) * numWays_ + way];
    }

    /** Per-access bookkeeping: RPD aging, sampling, recompute clock. */
    void step(const AccessContext &ctx);

    PdpParams params_;
    /** Cached display name; subclasses overwrite in their constructor. */
    std::string name_;
    uint32_t sd_ = 1;       //!< distance step S_d
    uint8_t maxRpd_ = 255;  //!< 2^n_c - 1
    uint32_t pd_ = 64;
    uint64_t accessCount_ = 0;
    std::vector<PdSample> history_;

    std::unique_ptr<RdSampler> sampler_;
    std::unique_ptr<RdCounterArray> rdd_;
    HitRateModel model_;

  private:
    void tick(uint32_t set);

    std::vector<uint8_t> rpds_;
    std::vector<uint8_t> sdCounter_;
};

/** Factory helpers mirroring the paper's policy names. */
std::unique_ptr<PdpPolicy> makeSpdpNb(uint32_t static_pd);
std::unique_ptr<PdpPolicy> makeSpdpB(uint32_t static_pd);
std::unique_ptr<PdpPolicy> makeDynamicPdp(unsigned nc_bits,
                                          bool bypass = true);

// PDP keeps the per-line remaining-PD counters in a policy-owned
// array (n_c bits per line in hardware, a byte per way here); the
// cache's scratch row stays untouched.
PDP_SCRATCH_LAYOUT(PdpPolicy, NoScratchState);

} // namespace pdp

#endif // PDP_CORE_PDP_POLICY_H
