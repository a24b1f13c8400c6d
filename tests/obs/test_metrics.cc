/**
 * @file
 * Unit tests for the metrics registry: concurrent correctness of the
 * instruments and validity of the JSON snapshot.
 */

#include "obs/metrics.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.hh"

namespace gpuscale {
namespace obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumCorrectly)
{
    Counter &c = Registry::instance().counter(
        "test.metrics.concurrent_counter");
    c.reset();

    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c]() {
            for (uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndConcurrentAdd)
{
    Gauge &g = Registry::instance().gauge("test.metrics.gauge");
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);

    g.reset();
    constexpr int kThreads = 4;
    constexpr int kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&g]() {
            for (int i = 0; i < kAdds; ++i)
                g.add(1.0);
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_DOUBLE_EQ(g.value(), kThreads * kAdds);
}

TEST(HistogramTest, BucketIndexIsMonotone)
{
    size_t prev = 0;
    for (double v = 1e-10; v < 1e4; v *= 1.7) {
        const size_t idx = Histogram::bucketIndex(v);
        EXPECT_GE(idx, prev);
        prev = idx;
    }
    EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(-1.0), 0u);
    EXPECT_EQ(Histogram::bucketIndex(1e9),
              Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, StatisticsAndPercentiles)
{
    Histogram &h =
        Registry::instance().histogram("test.metrics.histogram");
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);

    // 1000 samples at 1 us, 100 at 1 ms: p50 must sit at ~1 us and
    // p99+ at ~1 ms, within log-bucket resolution.
    for (int i = 0; i < 1000; ++i)
        h.record(1e-6);
    for (int i = 0; i < 100; ++i)
        h.record(1e-3);

    EXPECT_EQ(h.count(), 1100u);
    EXPECT_NEAR(h.mean(), (1000 * 1e-6 + 100 * 1e-3) / 1100, 1e-9);
    EXPECT_DOUBLE_EQ(h.minSample(), 1e-6);
    EXPECT_DOUBLE_EQ(h.maxSample(), 1e-3);
    EXPECT_NEAR(h.percentile(50), 1e-6, 0.5e-6);
    EXPECT_NEAR(h.percentile(99), 1e-3, 0.5e-3);
    // Percentiles never leave the observed range.
    EXPECT_GE(h.percentile(0), 1e-6);
    EXPECT_LE(h.percentile(100), 1e-3);
}

TEST(HistogramTest, EmptyStateIsDistinguishableFromZeroSample)
{
    Histogram &h =
        Registry::instance().histogram("test.metrics.empty_sentinel");
    h.reset();

    // While empty: explicit empty() plus NaN extremes — not the 0.0
    // that a genuine zero-valued sample would produce.
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.minSample()));
    EXPECT_TRUE(std::isnan(h.maxSample()));

    // The JSON snapshot keeps the distinction: NaN serializes as
    // null, so downstream readers never mistake "no samples" for "a
    // zero sample".
    const JsonValue before = parseJson(
        Registry::instance().snapshotJson());
    const JsonValue &empty_hist =
        before.at("histograms").at("test.metrics.empty_sentinel");
    EXPECT_TRUE(empty_hist.at("min").isNull());
    EXPECT_TRUE(empty_hist.at("max").isNull());

    // One record(0.0): no longer empty, extremes exactly 0.0.
    h.record(0.0);
    EXPECT_FALSE(h.empty());
    EXPECT_DOUBLE_EQ(h.minSample(), 0.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 0.0);
    const JsonValue after = parseJson(
        Registry::instance().snapshotJson());
    const JsonValue &zero_hist =
        after.at("histograms").at("test.metrics.empty_sentinel");
    EXPECT_TRUE(zero_hist.at("min").isNumber());
    EXPECT_DOUBLE_EQ(zero_hist.at("min").number, 0.0);

    // reset() restores the empty sentinel, not a zero floor.
    h.reset();
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.minSample()));
}

TEST(HistogramTest, PercentileEdgeCases)
{
    Histogram &h = Registry::instance().histogram(
        "test.metrics.percentile_edges");
    h.reset();

    // Empty histogram: every percentile is the 0 sentinel.
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);

    // Single sample: every percentile collapses to that sample (the
    // clamp to [min, max] makes this exact, not bucket-resolution).
    h.record(3e-6);
    for (const double p : {0.0, 50.0, 99.9, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(p), 3e-6) << "p=" << p;

    // With samples spanning buckets, p=0 and p=100 stay inside the
    // observed range (bucket midpoints, clamped to [min, max]).
    h.record(7e-4);
    EXPECT_GE(h.percentile(0), 3e-6);
    EXPECT_LT(h.percentile(0), 7e-4);
    EXPECT_GT(h.percentile(100), 3e-6);
    EXPECT_LE(h.percentile(100), 7e-4);
    EXPECT_LE(h.percentile(0), h.percentile(100));

    // Overflow bucket: samples at/above kHi land in the last bucket
    // and percentiles stay clamped to the true max, never inf.
    h.reset();
    h.record(Histogram::kHi * 10); // 10,000 s: overflow bucket.
    EXPECT_EQ(Histogram::bucketIndex(Histogram::kHi * 10),
              Histogram::kNumBuckets - 1);
    EXPECT_DOUBLE_EQ(h.percentile(50), Histogram::kHi * 10);
    EXPECT_DOUBLE_EQ(h.percentile(100), Histogram::kHi * 10);
    EXPECT_TRUE(std::isfinite(h.percentile(99)));
}

TEST(HistogramTest, ConcurrentRecordsAllCounted)
{
    Histogram &h = Registry::instance().histogram(
        "test.metrics.concurrent_histogram");
    h.reset();

    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t]() {
            for (int i = 0; i < kPerThread; ++i)
                h.record(1e-6 * (t + 1));
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(h.minSample(), 1e-6);
    EXPECT_DOUBLE_EQ(h.maxSample(), 8e-6);
    const double expected_sum =
        kPerThread * 1e-6 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
    EXPECT_NEAR(h.sum(), expected_sum, expected_sum * 1e-9);
}

TEST(RegistryTest, ReturnsStableReferences)
{
    Counter &a = Registry::instance().counter("test.metrics.stable");
    Counter &b = Registry::instance().counter("test.metrics.stable");
    EXPECT_EQ(&a, &b);
    EXPECT_FALSE(Registry::instance().empty());
}

TEST(RegistryTest, SnapshotJsonParsesAndCarriesValues)
{
    auto &reg = Registry::instance();
    reg.counter("test.snapshot.counter", "a counter").inc(7);
    reg.gauge("test.snapshot.gauge", "a gauge").set(1.5);
    Histogram &h = reg.histogram("test.snapshot.hist", "a histogram");
    h.reset();
    h.record(2e-6);

    const JsonValue v = parseJson(reg.snapshotJson());
    ASSERT_TRUE(v.isObject());
    // Exactly the three instrument groups; nothing else.
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_GE(v.at("counters").at("test.snapshot.counter").number, 7.0);
    EXPECT_DOUBLE_EQ(v.at("gauges").at("test.snapshot.gauge").number,
                     1.5);
    const JsonValue &hist = v.at("histograms").at("test.snapshot.hist");
    EXPECT_GE(hist.at("count").number, 1.0);
    EXPECT_GT(hist.at("p50").number, 0.0);
    EXPECT_GE(hist.at("p99").number, hist.at("p50").number);
    EXPECT_GE(hist.at("max").number, hist.at("min").number);
}

TEST(RegistryTest, ExpositionRendersPrometheusText)
{
    auto &reg = Registry::instance();
    reg.counter("test.expo.counter", "an exposition counter").inc(9);
    reg.gauge("test.expo.gauge", "an exposition gauge").set(2.5);
    Histogram &h =
        reg.histogram("test.expo.hist", "an exposition histogram");
    h.reset();
    h.record(1e-6);
    Histogram &empty_h =
        reg.histogram("test.expo.empty_hist", "never recorded");
    empty_h.reset();

    std::ostringstream os;
    reg.writeExposition(os);
    const std::string text = os.str();

    // Names are prefixed and dot-mapped; counters carry HELP/TYPE.
    EXPECT_NE(text.find("# HELP gpuscale_test_expo_counter "
                        "an exposition counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gpuscale_test_expo_counter counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("gpuscale_test_expo_counter 9\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE gpuscale_test_expo_gauge gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("gpuscale_test_expo_gauge 2.5\n"),
              std::string::npos);

    // Histograms render as summaries with quantiles + _sum/_count.
    EXPECT_NE(text.find("# TYPE gpuscale_test_expo_hist summary\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("gpuscale_test_expo_hist{quantile=\"0.5\"} "),
        std::string::npos);
    EXPECT_NE(text.find("gpuscale_test_expo_hist_count 1\n"),
              std::string::npos);

    // An empty histogram omits quantiles but still exports _count=0.
    EXPECT_EQ(
        text.find("gpuscale_test_expo_empty_hist{quantile"),
        std::string::npos);
    EXPECT_NE(text.find("gpuscale_test_expo_empty_hist_count 0\n"),
              std::string::npos);
}

TEST(RegistryTest, SnapshotTableHasRowPerInstrument)
{
    auto &reg = Registry::instance();
    reg.counter("test.table.counter").inc();
    reg.gauge("test.table.gauge").set(1);
    reg.histogram("test.table.hist").record(1e-6);

    const TextTable t = reg.snapshotTable();
    EXPECT_EQ(t.numColumns(), 4u);
    EXPECT_GE(t.numRows(), 3u);
    // Renders without panicking and mentions a known metric.
    EXPECT_NE(t.render().find("test.table.counter"), std::string::npos);
}

TEST(QuiesceTest, QuiescedInstrumentsDropUpdates)
{
    Counter &c = Registry::instance().counter(
        "test.quiesce.counter", "test counter");
    Histogram &h = Registry::instance().histogram(
        "test.quiesce.hist", "test histogram");
    c.reset();
    h.reset();

    Registry::setQuiesced(true);
    EXPECT_TRUE(Registry::quiesced());
    c.inc(5);
    h.record(1e-3);
    Registry::setQuiesced(false);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.minSample()));

    c.inc(5);
    h.record(1e-3);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(h.count(), 1u);
}

// The TSan target for the reset race: resetAll() walks every
// registered instrument while writer threads keep hammering
// inc()/record().  All stores are relaxed atomics, so there is no
// happens-before edge to assert on — the test's contract is simply
// "no data race and no torn snapshot" under the sanitizer, plus the
// post-join invariant that a final reset leaves everything empty.
TEST(RegistryTest, ResetAllRacesConcurrentRecordsCleanly)
{
    auto &reg = Registry::instance();
    Counter &c = reg.counter("test.reset_race.counter", "test counter");
    Histogram &h =
        reg.histogram("test.reset_race.hist", "test histogram");

    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&]() {
            while (!stop.load(std::memory_order_relaxed)) {
                c.inc();
                h.record(1e-6);
            }
        });
    }
    for (int i = 0; i < 200; ++i) {
        reg.resetAll();
        // A snapshot taken mid-race must stay internally sane: it
        // never reports a value no writer produced.
        const double max = h.maxSample();
        EXPECT_TRUE(std::isnan(max) || max == 1e-6);
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : writers)
        t.join();

    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(h.empty());
    EXPECT_TRUE(std::isnan(h.minSample()));
}

} // namespace
} // namespace obs
} // namespace gpuscale
