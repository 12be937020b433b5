/**
 * @file
 * Zipf(alpha) rank sampler over a bounded footprint.
 *
 * Service-mode tenants (src/service/) model cache-service key
 * popularity: request streams against N distinct lines where line r's
 * probability is proportional to 1 / (r+1)^alpha.  The sampler
 * precomputes the normalized CDF once (O(N) doubles) and draws by
 * binary search.  A power-of-two guide table narrows each search to the
 * ranks of one probability bucket, so a draw costs a few dependent loads
 * instead of log2(N).  All randomness flows through the caller's Rng,
 * keeping streams bit-reproducible.
 */

#ifndef PDP_TRACE_ZIPF_H
#define PDP_TRACE_ZIPF_H

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace pdp
{

/** Precomputed-CDF Zipf sampler: ranks 0..n-1, P(r) ~ 1/(r+1)^alpha. */
class ZipfSampler
{
  public:
    /**
     * @param n footprint size (distinct ranks); must be >= 1
     * @param alpha skew exponent; 0 degenerates to uniform
     */
    ZipfSampler(uint64_t n, double alpha);

    /** Draw one rank in [0, n). */
    uint64_t sample(Rng &rng) const { return rankOf(rng.uniform()); }

    /** The rank a uniform draw `u` maps to: the first rank whose CDF is
     *  >= u.  `u` must be an Rng::uniform() value (a multiple of 2^-53
     *  in [0, 1)), which the guide-table bucket index relies on. */
    uint64_t rankOf(double u) const;

    uint64_t footprint() const { return cdf_.size(); }
    double alpha() const { return alpha_; }

  private:
    double alpha_;
    /** cdf_[r] = P(rank <= r); last element is exactly 1.0. */
    std::vector<double> cdf_;
    /** log2 of the guide table's bucket count. */
    unsigned guideBits_ = 0;
    /** guide_[b] = first rank whose CDF is >= b / 2^guideBits_, for
     *  b in [0, 2^guideBits_]: a draw u in bucket b = floor(u *
     *  2^guideBits_) lies in ranks [guide_[b], guide_[b + 1]]. */
    std::vector<uint32_t> guide_;
};

} // namespace pdp

#endif // PDP_TRACE_ZIPF_H
