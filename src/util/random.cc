#include "random.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace lag
{

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 mix(seed);
    for (auto &word : s_)
        word = mix.next();
}

std::uint64_t
Rng::rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::nextDouble()
{
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    lag_assert(lo <= hi, "uniformInt bounds inverted: ", lo, " > ", hi);
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(nextU64());
    // Modulo bias is < 2^-53 for the spans used here (all tiny
    // relative to 2^64); accepted for simplicity.
    return lo + static_cast<std::int64_t>(nextU64() % span);
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

double
Rng::gaussian()
{
    // Marsaglia polar method.
    double u, v, s;
    do {
        u = uniformReal(-1.0, 1.0);
        v = uniformReal(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    return u * std::sqrt(-2.0 * std::log(s) / s);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::logNormal(double median, double sigma)
{
    lag_assert(median > 0.0, "logNormal median must be positive");
    return median * std::exp(sigma * gaussian());
}

double
Rng::exponential(double mean)
{
    lag_assert(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

int
Rng::poisson(double mean)
{
    lag_assert(mean >= 0.0, "poisson mean must be non-negative");
    if (mean == 0.0)
        return 0;
    if (mean > 64.0) {
        const double draw = gaussian(mean, std::sqrt(mean));
        return std::max(0, static_cast<int>(std::lround(draw)));
    }
    const double limit = std::exp(-mean);
    double product = nextDouble();
    int count = 0;
    while (product > limit) {
        ++count;
        product *= nextDouble();
    }
    return count;
}

DurationNs
Rng::duration(DurationNs median_ns, double sigma, DurationNs lo_ns,
              DurationNs hi_ns)
{
    lag_assert(lo_ns <= hi_ns, "duration bounds inverted");
    const double draw = logNormal(static_cast<double>(median_ns), sigma);
    const auto ns = static_cast<DurationNs>(draw);
    return std::clamp(ns, lo_ns, hi_ns);
}

std::uint64_t
Rng::fork()
{
    // Mix two outputs through SplitMix so that child streams do not
    // overlap with this generator's own future outputs.
    SplitMix64 mix(nextU64() ^ 0xa5a5a5a5deadbeefULL);
    mix.next();
    return mix.next();
}

} // namespace lag
