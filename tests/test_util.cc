/**
 * @file
 * Unit tests for the util library: statistics accumulators,
 * deterministic RNG, table formatting and env knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "util/env.hh"
#include "util/json.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace {

using tt::Rng;
using tt::RunningStat;
using tt::TablePrinter;

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    EXPECT_TRUE(s.empty());
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat a;
    RunningStat b;
    RunningStat whole;
    for (int i = 0; i < 50; ++i) {
        const double x = 0.1 * i * i - 3.0 * i;
        (i % 2 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_NEAR(a.min(), whole.min(), 1e-12);
    EXPECT_NEAR(a.max(), whole.max(), 1e-12);
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a;
    RunningStat empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(GeometricMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(tt::geometricMean({4.0, 9.0}), 6.0);
    EXPECT_NEAR(tt::geometricMean({1.12, 1.12, 1.12}), 1.12, 1e-12);
    EXPECT_EQ(tt::geometricMean({}), 0.0);
}

TEST(Median, OddAndEven)
{
    EXPECT_DOUBLE_EQ(tt::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(tt::median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(tt::median({}), 0.0);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a.next() == b.next());
    EXPECT_LT(equal, 4);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        const auto v = rng.nextInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        const double d = rng.nextDouble(2.0, 3.0);
        EXPECT_GE(d, 2.0);
        EXPECT_LT(d, 3.0);
    }
}

TEST(Rng, UniformMeanIsCentred)
{
    Rng rng(99);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += rng.nextDouble();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(5);
    RunningStat s;
    for (int i = 0; i < 20000; ++i)
        s.add(rng.nextGaussian(3.0, 2.0));
    EXPECT_NEAR(s.mean(), 3.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Table, AlignsColumns)
{
    TablePrinter table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"longer-name", "2.50"});
    const std::string out = table.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TablePrinter::num(1.2345, 2), "1.23");
    EXPECT_EQ(TablePrinter::num(1.0, 0), "1");
    EXPECT_EQ(TablePrinter::pct(0.1277), "12.77%");
}

TEST(Histogram, PercentileAccessorsMatchQuantile)
{
    tt::Histogram hist;
    for (int i = 1; i <= 1000; ++i)
        hist.add(static_cast<double>(i) * 1e-6);
    EXPECT_DOUBLE_EQ(hist.p50(), hist.quantile(0.50));
    EXPECT_DOUBLE_EQ(hist.p90(), hist.quantile(0.90));
    EXPECT_DOUBLE_EQ(hist.p95(), hist.quantile(0.95));
    EXPECT_DOUBLE_EQ(hist.p99(), hist.quantile(0.99));
    // Monotone and inside the observed range.
    EXPECT_LE(hist.p50(), hist.p90());
    EXPECT_LE(hist.p90(), hist.p95());
    EXPECT_LE(hist.p95(), hist.p99());
    EXPECT_GE(hist.p50(), hist.min());
    EXPECT_LE(hist.p99(), hist.max());
}

TEST(MetricsRegistry, SummaryTableAndJsonCarryPercentiles)
{
    tt::MetricsRegistry metrics;
    for (int i = 1; i <= 100; ++i)
        metrics.observe("latency", static_cast<double>(i) * 1e-6);
    const std::string table = metrics.summaryTable();
    EXPECT_NE(table.find("p90"), std::string::npos);
    EXPECT_NE(table.find("p95"), std::string::npos);
    std::ostringstream os;
    metrics.writeJson(os);
    EXPECT_NE(os.str().find("\"p95\""), std::string::npos);
}

TEST(Json, ParsesScalarsArraysAndObjects)
{
    std::string error;
    const auto doc = tt::json::parse(
        R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\ny"},)"
        R"( "t": true, "f": false, "n": null, "neg": -2e-3})",
        &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->isObject());
    EXPECT_DOUBLE_EQ(doc->numberAt("a"), 1.5);
    const auto *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_DOUBLE_EQ(b->array[2].number, 3.0);
    const auto *c = doc->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->stringAt("d"), "x\ny");
    EXPECT_TRUE(doc->find("t")->boolean);
    EXPECT_FALSE(doc->find("f")->boolean);
    EXPECT_TRUE(doc->find("n")->isNull());
    EXPECT_DOUBLE_EQ(doc->numberAt("neg"), -2e-3);
}

TEST(Json, ParsesEscapesAndUnicode)
{
    const auto doc =
        tt::json::parse(R"("quote\" slash\\ tab\t uA")");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->string, "quote\" slash\\ tab\t uA");
}

TEST(Json, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(tt::json::parse("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(tt::json::parse("[1, 2,]").has_value());
    EXPECT_FALSE(tt::json::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(tt::json::parse("12x").has_value());
    EXPECT_FALSE(tt::json::parse("[1] trailing").has_value());
    EXPECT_FALSE(tt::json::parse("\"unterminated").has_value());
    EXPECT_FALSE(tt::json::parse("").has_value());
}

TEST(Json, FallbacksOnMissingOrMistypedMembers)
{
    const auto doc = tt::json::parse(R"({"s": "str", "x": 4})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->numberAt("missing", 7.0), 7.0);
    EXPECT_DOUBLE_EQ(doc->numberAt("s", 7.0), 7.0);
    EXPECT_EQ(doc->stringAt("x", "d"), "d");
    EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(Env, ParsesWithFallbacks)
{
    ::setenv("TT_TEST_INT", "42", 1);
    ::setenv("TT_TEST_DOUBLE", "2.5", 1);
    ::setenv("TT_TEST_BAD", "xyz", 1);
    EXPECT_EQ(tt::envInt("TT_TEST_INT", 7), 42);
    EXPECT_EQ(tt::envInt("TT_TEST_MISSING", 7), 7);
    EXPECT_EQ(tt::envInt("TT_TEST_BAD", 7), 7);
    EXPECT_DOUBLE_EQ(tt::envDouble("TT_TEST_DOUBLE", 1.0), 2.5);
    EXPECT_DOUBLE_EQ(tt::envDouble("TT_TEST_MISSING", 1.0), 1.0);
}

} // namespace
