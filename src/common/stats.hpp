/**
 * @file
 * Lightweight statistics helpers used by the experiment harnesses:
 * running means, geometric means and a least-squares line fit.
 */

#ifndef DOL_COMMON_STATS_HPP
#define DOL_COMMON_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace dol
{

/** Incremental mean / min / max accumulator. */
class RunningStat
{
  public:
    void
    add(double x)
    {
        ++_count;
        _sum += x;
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/** Geometric mean of a sequence of positive values. */
inline double
geomean(std::span<const double> values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/**
 * Simple least-squares linear regression, used to reproduce the trend
 * line in the paper's Figure 12 (accuracy falling with scope).
 */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
};

inline LinearFit
linearFit(std::span<const double> xs, std::span<const double> ys)
{
    LinearFit fit;
    const std::size_t n = std::min(xs.size(), ys.size());
    if (n < 2)
        return fit;
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    const double denom = n * sxx - sx * sx;
    if (denom != 0.0) {
        fit.slope = (n * sxy - sx * sy) / denom;
        fit.intercept = (sy - fit.slope * sx) / n;
    }
    return fit;
}

} // namespace dol

#endif // DOL_COMMON_STATS_HPP
