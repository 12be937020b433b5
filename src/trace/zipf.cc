#include "trace/zipf.h"

#include <algorithm>

#include "check/check.h"

namespace pdp
{

ZipfSampler::ZipfSampler(uint64_t n, double alpha) : alpha_(alpha)
{
    PDP_CHECK(n >= 1, "ZipfSampler: footprint must be >= 1, got ", n);
    // Bound the CDF table: service footprints are line counts of cache-
    // sized working sets, far below this.
    PDP_CHECK(n <= (1ull << 26),
              "ZipfSampler: footprint ", n, " exceeds 2^26 lines");
    cdf_.resize(n);
    double sum = 0.0;
    for (uint64_t r = 0; r < n; ++r) {
        sum += __builtin_pow(static_cast<double>(r + 1), -alpha);
        cdf_[r] = sum;
    }
    const double inv = 1.0 / sum;
    for (double &c : cdf_)
        c *= inv;
    cdf_.back() = 1.0;

    // About two ranks per bucket on a uniform CDF, capped at 2^20
    // buckets (4 MB); bucket edges b / 2^k are exact doubles.
    while (guideBits_ < 20 && (uint64_t{1} << guideBits_) < n / 2)
        ++guideBits_;
    const uint64_t buckets = uint64_t{1} << guideBits_;
    guide_.resize(buckets + 1);
    uint64_t r = 0;
    for (uint64_t b = 0; b <= buckets; ++b) {
        const double edge = static_cast<double>(b) /
            static_cast<double>(buckets);
        while (cdf_[r] < edge)
            ++r; // terminates: cdf_.back() == 1.0 >= every edge
        guide_[b] = static_cast<uint32_t>(r);
    }
}

uint64_t
ZipfSampler::rankOf(double u) const
{
    // u = m * 2^-53 for an integer m < 2^53, so scaling by 2^k and
    // truncating is exact: bucket b holds u, and cdf_[guide_[b + 1]] >=
    // (b + 1) / 2^k > u bounds the full-range lower_bound from above.
    const uint64_t b = static_cast<uint64_t>(
        u * static_cast<double>(uint64_t{1} << guideBits_));
    const double *lo = cdf_.data() + guide_[b];
    const double *hi = cdf_.data() + guide_[b + 1];
    return static_cast<uint64_t>(std::lower_bound(lo, hi, u) -
                                 cdf_.data());
}

} // namespace pdp
