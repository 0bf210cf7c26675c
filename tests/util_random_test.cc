/**
 * @file
 * Tests for the deterministic PRNG and its distributions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/random.hh"
#include "util/stats.hh"

namespace lag
{
namespace
{

TEST(SplitMix64Test, KnownSequenceFromSeedZero)
{
    // Reference values for SplitMix64(0), from the published
    // algorithm.
    SplitMix64 mix(0);
    EXPECT_EQ(mix.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(mix.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(mix.next(), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU64() == b.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(RngTest, UniformIntRespectsPointRange)
{
    Rng rng(7);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntCoversRange)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 9);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, ChanceEdgeCases)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        ASSERT_FALSE(rng.chance(0.0));
        ASSERT_TRUE(rng.chance(1.0));
        ASSERT_FALSE(rng.chance(-1.0));
        ASSERT_TRUE(rng.chance(2.0));
    }
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.03);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(RngTest, LogNormalMedianApproximatesParameter)
{
    Rng rng(17);
    std::vector<double> draws;
    for (int i = 0; i < 20001; ++i)
        draws.push_back(rng.logNormal(100.0, 0.5));
    EXPECT_NEAR(quantile(draws, 0.5), 100.0, 4.0);
}

TEST(RngTest, ExponentialMean)
{
    Rng rng(19);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.exponential(10.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.3);
}

TEST(RngTest, PoissonMeanSmall)
{
    Rng rng(29);
    RunningStats stats;
    for (int i = 0; i < 30000; ++i)
        stats.add(rng.poisson(3.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(RngTest, PoissonMeanLargeUsesNormalApprox)
{
    Rng rng(31);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.poisson(100.0));
    EXPECT_NEAR(stats.mean(), 100.0, 1.0);
}

TEST(RngTest, PoissonZeroMean)
{
    Rng rng(37);
    EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(RngTest, DurationClampsToBounds)
{
    Rng rng(41);
    for (int i = 0; i < 10000; ++i) {
        const DurationNs d = rng.duration(1000, 3.0, 500, 2000);
        ASSERT_GE(d, 500);
        ASSERT_LE(d, 2000);
    }
}

TEST(RngTest, ForkProducesIndependentStream)
{
    Rng parent(55);
    Rng child(parent.fork());
    // The child stream should not replicate the parent stream.
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.nextU64() == child.nextU64())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

/** Property sweep: uniformInt respects bounds over many ranges. */
class UniformIntRanges
    : public ::testing::TestWithParam<std::pair<std::int64_t,
                                                std::int64_t>>
{
};

TEST_P(UniformIntRanges, StaysWithinBounds)
{
    const auto [lo, hi] = GetParam();
    Rng rng(static_cast<std::uint64_t>(lo * 31 + hi));
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniformInt(lo, hi);
        ASSERT_GE(v, lo);
        ASSERT_LE(v, hi);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, UniformIntRanges,
    ::testing::Values(std::pair<std::int64_t, std::int64_t>{0, 1},
                      std::pair<std::int64_t, std::int64_t>{-10, 10},
                      std::pair<std::int64_t, std::int64_t>{0, 1000000},
                      std::pair<std::int64_t, std::int64_t>{-5, -1},
                      std::pair<std::int64_t, std::int64_t>{
                          1'000'000'000, 2'000'000'000}));

} // namespace
} // namespace lag
