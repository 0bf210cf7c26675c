/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything random in a LagAlyzer study flows from one 64-bit seed so
 * that every session, trace and analysis result is exactly
 * reproducible. The generator is xoshiro256** seeded via SplitMix64;
 * both are implemented here rather than taken from <random> because
 * libstdc++ distributions are not portable bit-for-bit across
 * implementations, and reproducibility across machines is a design
 * requirement (DESIGN.md §4).
 */

#ifndef LAG_UTIL_RANDOM_HH
#define LAG_UTIL_RANDOM_HH

#include <cstdint>

#include "types.hh"

namespace lag
{

/**
 * SplitMix64 stream; used to expand a single seed into generator
 * state and to derive independent child seeds.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next 64-bit value in the stream. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256** generator with convenience draws for the distributions
 * the application models need.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed);

    /** Uniform 64-bit value. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [lo, hi] (inclusive). */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli draw with probability @p p of returning true. */
    bool chance(double p);

    /** Standard normal via Box-Muller (polar form). */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Lognormal draw parameterized by the distribution's own
     * median and a multiplicative spread sigma (log-space stddev).
     * Handler costs in the application models use this shape: most
     * draws near the median with a heavy upper tail, which is what
     * produces the paper's few-perceptible-among-many-short episode
     * mix.
     */
    double logNormal(double median, double sigma);

    /** Exponential draw with the given mean. */
    double exponential(double mean);

    /** Poisson draw (Knuth for small means, normal approx above 64). */
    int poisson(double mean);

    /**
     * Duration draw: lognormal around @p median_ns clamped to
     * [@p lo_ns, @p hi_ns]. The workhorse for activity self-costs.
     */
    DurationNs duration(DurationNs median_ns, double sigma,
                        DurationNs lo_ns, DurationNs hi_ns);

    /** Derive an independent child seed (for per-thread generators). */
    std::uint64_t fork();

  private:
    static std::uint64_t rotl(std::uint64_t x, int k);

    std::uint64_t s_[4];
};

} // namespace lag

#endif // LAG_UTIL_RANDOM_HH
