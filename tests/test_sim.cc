/**
 * @file
 * Unit tests for the statistics accumulators.
 */

#include <gtest/gtest.h>

#include "sim/stats.h"

using namespace qla;
using namespace qla::sim;

TEST(ScalarStat, MeanVarianceExtrema)
{
    ScalarStat stat;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(v);
    EXPECT_EQ(stat.count(), 8u);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
    EXPECT_DOUBLE_EQ(stat.sum(), 40.0);
}

TEST(ScalarStat, EmptyIsSafe)
{
    ScalarStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stat.sem(), 0.0);
}

TEST(RateStat, PointEstimateAndInterval)
{
    RateStat rate;
    for (int i = 0; i < 100; ++i)
        rate.add(i < 25);
    EXPECT_EQ(rate.trials(), 100u);
    EXPECT_DOUBLE_EQ(rate.rate(), 0.25);
    // Wilson 95% half-width for 25/100 is about 0.085.
    EXPECT_NEAR(rate.halfWidth95(), 0.085, 0.01);
}

TEST(RateStat, ZeroSuccessesStillHaveWidth)
{
    RateStat rate;
    for (int i = 0; i < 50; ++i)
        rate.add(false);
    EXPECT_DOUBLE_EQ(rate.rate(), 0.0);
    EXPECT_GT(rate.halfWidth95(), 0.0);
}
