/**
 * @file
 * Deterministic random number generation for reproducible simulations.
 *
 * All stochastic behaviour in the ecovisor flows through Rng so that a
 * run is a pure function of (configuration, seed). Never use wall-clock
 * or unseeded generators inside the library.
 */

#ifndef ECOV_UTIL_RNG_H
#define ECOV_UTIL_RNG_H

#include <cmath>
#include <cstdint>
#include <random>

#include "util/logging.h"

namespace ecov {

/**
 * Seeded pseudo-random source wrapping std::mt19937_64.
 *
 * Provides the handful of distributions the simulator needs. Cheap to
 * construct; pass by reference where shared streams are required.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (deterministic by design). */
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        std::uniform_real_distribution<double> d(lo, hi);
        return d(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        std::uniform_int_distribution<std::int64_t> d(lo, hi);
        return d(engine_);
    }

    /**
     * Gaussian sample with the given mean and standard deviation.
     * A zero deviation returns `mean` but still draws, so the stream
     * stays where any other deviation would leave it. Fatal on a
     * negative or NaN deviation.
     *
     * std::normal_distribution requires stddev > 0, so this draws a
     * unit normal and scales it: libstdc++ computes
     * `z * stddev + mean` itself, so values and draw counts match
     * the distribution called with (mean, stddev) exactly.
     */
    double
    gaussian(double mean, double stddev)
    {
        if (stddev < 0.0 || std::isnan(stddev))
            fatal("Rng::gaussian: negative or NaN stddev");
        std::normal_distribution<double> unit(0.0, 1.0);
        return unit(engine_) * stddev + mean;
    }

    /** Exponential sample with the given rate (lambda). */
    double
    exponential(double rate)
    {
        std::exponential_distribution<double> d(rate);
        return d(engine_);
    }

    /** Bernoulli trial: true with probability p. */
    bool
    bernoulli(double p)
    {
        std::bernoulli_distribution d(p);
        return d(engine_);
    }

    /** Derive an independent child stream (for per-component seeding). */
    Rng
    fork()
    {
        return Rng(engine_());
    }

    /** Access the underlying engine (for std::shuffle etc.). */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace ecov

#endif // ECOV_UTIL_RNG_H
