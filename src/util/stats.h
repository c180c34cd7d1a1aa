/**
 * @file
 * Small statistics helpers used by the evaluation harness: an online
 * accumulator (count/mean/stddev/min/max) and percentile computation
 * over a sample vector.
 */

#ifndef ECOV_UTIL_STATS_H
#define ECOV_UTIL_STATS_H

#include <cstddef>
#include <vector>

namespace ecov {

/**
 * Online accumulator using Welford's algorithm.
 *
 * Tracks count, mean, variance, min and max without retaining samples.
 */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return mean_; }

    /** Sample variance (0 when fewer than two samples). */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Minimum sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** Maximum sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/**
 * Percentile of an arbitrary vector (copies and sorts internally).
 *
 * @param values samples (need not be sorted)
 * @param p percentile in [0, 100]
 */
double percentileOf(std::vector<double> values, double p);

} // namespace ecov

#endif // ECOV_UTIL_STATS_H
