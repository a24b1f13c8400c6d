/**
 * @file
 * Self-tests of the benchmark's statistics helpers (stats.hh) and its
 * span arithmetic (spans.hh).  Build and run:
 *
 *   python3 perfbench/run.py --selftest
 *
 * Exits 0 when every check passes; prints each failure and exits 1
 * otherwise.
 */
#include <cmath>
#include <cstdio>
#include <limits>

#include "spans.hh"
#include "stats.hh"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                    \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
            ++failures;                                                \
        }                                                              \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
testPercentiles()
{
    CHECK(std::isnan(percentile({}, 50)));
    CHECK(near(median({3, 1, 2}), 2));
    CHECK(near(median({4, 1, 3, 2}), 2.5));
    CHECK(near(percentile({1, 2, 3, 4, 5}, 0), 1));
    CHECK(near(percentile({1, 2, 3, 4, 5}, 100), 5));
    CHECK(near(percentile({10, 20}, 90), 19));

    // At least ten samples beyond the percentile.
    CHECK(!percentileSupported(50, 19));
    CHECK(percentileSupported(50, 20));
    CHECK(!percentileSupported(90, 99));
    CHECK(percentileSupported(90, 100));
    CHECK(!percentileSupported(99, 999));
    CHECK(percentileSupported(99, 1000));
    CHECK(highestSupportedPercentile(5) == 0);
    CHECK(highestSupportedPercentile(20) == 50);
    CHECK(highestSupportedPercentile(150) == 90);
    CHECK(highestSupportedPercentile(1000) == 99);
    CHECK(highestSupportedPercentile(9999) == 99);
    CHECK(highestSupportedPercentile(10000) == 99.9);
}

void
testOpenLoopLateness()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Due every 10 ms.  The second request left 5 ms late; the third
    // stalled behind it, so from its due time it took 30 ms even
    // though its round trip after sending was only 2 ms.
    const std::vector<OpenLoopRecord> records = {
        {0.000, 0.000, 0.001},
        {0.010, 0.015, 0.016},
        {0.020, 0.048, 0.050},
        {0.030, nan, nan},   // never sent
        {0.040, 0.040, nan}, // sent, never answered
    };
    const OpenLoopSummary s = summarizeOpenLoop(records);
    CHECK(s.latency_ms.size() == 3);
    CHECK(near(s.latency_ms[0], 1));
    CHECK(near(s.latency_ms[1], 6));
    CHECK(near(s.latency_ms[2], 30));
    CHECK(s.lag_ms.size() == 4);
    CHECK(near(s.lag_ms[0], 0));
    CHECK(near(s.lag_ms[1], 5));
    CHECK(near(s.lag_ms[2], 28));
    CHECK(near(s.lag_ms[3], 0));
}

void
testBootstrapDeterminism()
{
    std::vector<double> base, treated;
    for (int i = 0; i < 31; ++i) {
        base.push_back(10.0 + (i % 7));
        treated.push_back(base.back() * (1.02 + 0.01 * (i % 5)));
    }
    const Interval a = pairedRatio(treated, base, 42);
    const Interval b = pairedRatio(treated, base, 42);
    const Interval c = pairedRatio(treated, base, 43);
    CHECK(a.estimate == b.estimate && a.lo == b.lo && a.hi == b.hi);
    CHECK(a.estimate == c.estimate);
    CHECK(a.lo <= a.estimate && a.estimate <= a.hi);
    CHECK(a.lo >= 1.02 - 1e-12 && a.hi <= 1.06 + 1e-12);
    CHECK(near(a.estimate, 1.04));

    const Interval one = pairedRatio({2.0}, {1.0}, 7);
    CHECK(one.estimate == 2.0 && one.lo == 2.0 && one.hi == 2.0);
}

void
testSelfTime()
{
    // root [0, 100) with children [10, 30) and [20, 50) overlapping,
    // and [90, 120) reaching past the root's end; the grandchild
    // [12, 18) belongs to the first child only.
    std::vector<Span> spans(5);
    spans[0] = {"op", "bench", 0, 100, -1, 1};
    spans[1] = {"a", "harness", 10, 30, 0, 1};
    spans[2] = {"b", "scaling", 20, 50, 0, 1};
    spans[3] = {"c", "obs", 90, 120, 0, 1};
    spans[4] = {"d", "gpu", 12, 18, 1, 1};
    const auto self = selfTimesNs(spans);
    CHECK(self[0] == 100 - (40 + 10)); // [10,50) and [90,100)
    CHECK(self[1] == 20 - 6);
    CHECK(self[2] == 30);
    CHECK(self[3] == 30);
    CHECK(self[4] == 6);

    // The recorder nests scopes and sums self time per layer per op.
    SpanRecorder rec;
    rec.setEnabled(true);
    for (int op = 0; op < 3; ++op) {
        rec.beginOp();
        SpanRecorder::Scope root(rec, "bench", "op");
        SpanRecorder::Scope inner(rec, "harness", "sweep");
    }
    CHECK(rec.spans().size() == 6);
    CHECK(rec.spans()[1].parent == 0);
    CHECK(rec.spans()[2].parent == -1);
    CHECK(rec.spans()[3].op == 2);
    const auto layers = rec.layerSelfMs({"bench", "harness", "gpu"});
    CHECK(layers.at("bench") >= 0.0);
    CHECK(layers.at("harness") >= 0.0);
    CHECK(layers.at("gpu") == 0.0);

    SpanRecorder off;
    {
        SpanRecorder::Scope s(off, "bench", "op");
    }
    CHECK(off.spans().empty());
}

} // namespace

int
main()
{
    testPercentiles();
    testOpenLoopLateness();
    testBootstrapDeterminism();
    testSelfTime();
    if (failures == 0)
        std::printf("perfbench_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
