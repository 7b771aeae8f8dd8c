/**
 * @file
 * Unit tests for the common utility layer: address arithmetic, the
 * deterministic RNG, and statistics helpers.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "metrics/table.hpp"

namespace dol
{
namespace
{

TEST(Types, LineArithmetic)
{
    EXPECT_EQ(lineAddr(0), 0u);
    EXPECT_EQ(lineAddr(63), 0u);
    EXPECT_EQ(lineAddr(64), 64u);
    EXPECT_EQ(lineAddr(0x12345), 0x12340u);
    EXPECT_EQ(lineNum(128), 2u);
}

TEST(Types, RegionArithmetic)
{
    EXPECT_EQ(kRegionBytes, 1024u);
    EXPECT_EQ(regionNum(0), 0u);
    EXPECT_EQ(regionNum(1023), 0u);
    EXPECT_EQ(regionNum(1024), 1u);
    EXPECT_EQ(lineInRegion(0), 0u);
    EXPECT_EQ(lineInRegion(64), 1u);
    EXPECT_EQ(lineInRegion(1023), 15u);
    EXPECT_EQ(lineInRegion(1024), 0u);
}

TEST(Types, NsToCycles)
{
    // 3 GHz: 1 ns = 3 cycles.
    EXPECT_EQ(nsToCycles(1.0), 3u);
    EXPECT_EQ(nsToCycles(12.0), 36u);
    EXPECT_EQ(nsToCycles(13.75), 41u);
}

/** Every address maps into its own line and region consistently. */
class AddressProperty : public ::testing::TestWithParam<Addr>
{
};

TEST_P(AddressProperty, LineContainsAddress)
{
    const Addr addr = GetParam();
    EXPECT_LE(lineAddr(addr), addr);
    EXPECT_LT(addr - lineAddr(addr), kLineBytes);
    EXPECT_EQ(lineNum(addr), lineAddr(addr) / kLineBytes);
    EXPECT_LT(lineInRegion(addr), kRegionLineCount);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddressProperty,
                         ::testing::Values(0ull, 1ull, 63ull, 64ull,
                                           4095ull, 4096ull,
                                           0xdeadbeefull,
                                           0x7fffffffffffull));

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 20}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, UniformCoversRange)
{
    Rng rng(11);
    double min = 1.0, max = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        min = std::min(min, u);
        max = std::max(max, u);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
    EXPECT_LT(min, 0.01);
    EXPECT_GT(max, 0.99);
}

TEST(Stats, RunningStat)
{
    RunningStat stat;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        stat.add(v);
    EXPECT_EQ(stat.count(), 4u);
    EXPECT_DOUBLE_EQ(stat.mean(), 2.5);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 4.0);
}

TEST(Stats, Geomean)
{
    const std::vector<double> vals{1.0, 4.0};
    EXPECT_NEAR(geomean(vals), 2.0, 1e-12);
    const std::vector<double> ones{1.0, 1.0, 1.0};
    EXPECT_NEAR(geomean(ones), 1.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, LinearFitRecoversLine)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 * i + 7.0);
    }
    const LinearFit fit = linearFit(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
}

TEST(TextTable, FormatsWithoutCrashing)
{
    TextTable table({"name", "value"});
    table.addRow({"alpha", fmt("%.2f", 1.5)});
    table.addRow({"beta"});
    table.print(stderr);
    EXPECT_EQ(fmt("%.1f", 2.25), "2.2");
}

} // namespace
} // namespace dol
