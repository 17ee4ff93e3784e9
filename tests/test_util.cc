/**
 * @file
 * Unit tests for the util module: time formatting, RNG, statistics,
 * linear fitting and tables.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/linear_fit.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strutil.h"
#include "util/table.h"
#include "util/time.h"

namespace coserve {
namespace {

TEST(TimeTest, UnitConstructors)
{
    EXPECT_EQ(nanoseconds(5), 5);
    EXPECT_EQ(microseconds(2.0), 2000);
    EXPECT_EQ(milliseconds(3.0), 3'000'000);
    EXPECT_EQ(seconds(1.5), 1'500'000'000);
}

TEST(TimeTest, Conversions)
{
    EXPECT_DOUBLE_EQ(toMilliseconds(milliseconds(12.5)), 12.5);
    EXPECT_DOUBLE_EQ(toSeconds(seconds(2.25)), 2.25);
}

TEST(TimeTest, FormatPicksUnits)
{
    EXPECT_EQ(formatTime(500), "500 ns");
    EXPECT_EQ(formatTime(microseconds(1.5)), "1.50 us");
    EXPECT_EQ(formatTime(milliseconds(20)), "20.00 ms");
    EXPECT_EQ(formatTime(seconds(3)), "3.00 s");
}

TEST(StrutilTest, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(1536), "1.50 KiB");
    EXPECT_EQ(formatBytes(3ll * 1024 * 1024 * 1024), "3.00 GiB");
}

TEST(StrutilTest, FormatPercentAndDouble)
{
    EXPECT_EQ(formatPercent(0.1234, 1), "12.3%");
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
}

TEST(StrutilTest, PutG17MatchesPrintf)
{
    // putG17 stands in for "%.17g" in the metrics JSON and sampler
    // CSV, so it must give the same bytes for every double: special
    // values, the extremes, and seeded random bit patterns.
    std::vector<double> values = {
        0.1, 1.0 / 3.0, 1e-7, 1.2345678901234568e17, 0.0, -0.0, 1e300,
        1e16, 1e17, 1e-5, 1e-4, 100.0, 5e-324, -2.2250738585072014e-308,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    std::mt19937_64 bits(17);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t u = bits();
        double v = 0.0;
        std::memcpy(&v, &u, sizeof(v));
        values.push_back(v);
    }
    for (const double v : values) {
        char want[64];
        std::snprintf(want, sizeof(want), "%.17g", v);
        char got[kMaxG17Chars];
        EXPECT_EQ(std::string(got, putG17(got, v)), want);
    }
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(RngTest, BernoulliRate)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ForkDecorrelates)
{
    Rng a(5);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(RngTest, DiscreteFromCdfRespectsWeights)
{
    Rng rng(3);
    const std::vector<double> cdf{0.5, 0.75, 1.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 30000; ++i)
        counts[rng.discreteFromCdf(cdf)] += 1;
    EXPECT_NEAR(counts[0] / 30000.0, 0.50, 0.02);
    EXPECT_NEAR(counts[1] / 30000.0, 0.25, 0.02);
    EXPECT_NEAR(counts[2] / 30000.0, 0.25, 0.02);
}

TEST(ZipfTest, ProbabilitiesSumToOne)
{
    ZipfDistribution zipf(50, 1.0);
    double sum = 0.0;
    for (std::size_t k = 0; k < 50; ++k)
        sum += zipf.probability(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostLikely)
{
    ZipfDistribution zipf(100, 1.2);
    EXPECT_GT(zipf.probability(0), zipf.probability(1));
    EXPECT_GT(zipf.probability(1), zipf.probability(50));
}

TEST(ZipfTest, ZeroExponentIsUniform)
{
    ZipfDistribution zipf(10, 0.0);
    for (std::size_t k = 0; k < 10; ++k)
        EXPECT_NEAR(zipf.probability(k), 0.1, 1e-9);
}

TEST(ZipfTest, SamplingMatchesProbability)
{
    ZipfDistribution zipf(8, 1.0);
    Rng rng(13);
    std::vector<int> counts(8, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        counts[zipf(rng)] += 1;
    for (std::size_t k = 0; k < 8; ++k) {
        EXPECT_NEAR(static_cast<double>(counts[k]) / n,
                    zipf.probability(k), 0.01);
    }
}

TEST(RunningStatTest, Moments)
{
    RunningStat s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(SamplesTest, PercentileInterpolates)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
    EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
    EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(HistogramTest, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.5);
    h.add(9.5);
    h.add(10.0);
    h.add(25.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_DOUBLE_EQ(h.bucketLow(3), 3.0);
}

TEST(LinearFitTest, ExactLine)
{
    const std::vector<double> xs{1, 2, 3, 4, 5};
    const std::vector<double> ys{3, 5, 7, 9, 11}; // y = 2x + 1
    const LinearFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
    EXPECT_NEAR(fit(10.0), 21.0, 1e-9);
}

TEST(LinearFitTest, NoisyLineReasonable)
{
    Rng rng(1);
    std::vector<double> xs, ys;
    for (int i = 1; i <= 30; ++i) {
        xs.push_back(i);
        ys.push_back(4.0 * i + 2.0 + rng.uniform(-0.5, 0.5));
    }
    const LinearFit fit = fitLine(xs, ys);
    EXPECT_NEAR(fit.slope, 4.0, 0.1);
    EXPECT_NEAR(fit.intercept, 2.0, 1.0);
    EXPECT_GT(fit.r2, 0.99);
}

TEST(TableTest, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

} // namespace
} // namespace coserve
