/**
 * @file
 * Statistics helpers for the repo benchmark.
 *
 * Everything the benchmark reports about a distribution goes through
 * here, so the rules stay in one place and perfbench_selftest can pin
 * them:
 *  - percentiles, and the rule for how high a percentile a sample
 *    supports (at least ten samples beyond it);
 *  - lateness accounting for the open-loop request generator;
 *  - seeded bootstrap confidence intervals for paired ratios;
 *  - span self time (a span minus the part its children cover).
 */
#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Percentile p in [0, 100] by linear interpolation between closest
 * ranks.  NaN for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** percentile(values, 50). */
double median(std::vector<double> values);

/** True when n samples leave at least ten beyond percentile p. */
bool percentileSupported(double p, size_t n);

/**
 * The highest of 50, 90, 99 and 99.9 that n samples support, or 0
 * when n cannot support even the median.
 */
double highestSupportedPercentile(size_t n);

/** One request of an open-loop run, in seconds from the run start. */
struct OpenLoopRecord {
    double due_s = 0.0;
    /** When the last byte of the request left; NaN if never sent. */
    double sent_s = 0.0;
    /** When the response arrived; NaN if it never did. */
    double done_s = 0.0;
};

/** What an open-loop run adds up to. */
struct OpenLoopSummary {
    /** Completed requests, timed from when each was due. */
    std::vector<double> latency_ms;
    /** How late each sent request left against its due time. */
    std::vector<double> lag_ms;
};

/**
 * Account open-loop requests.  Latency runs from the due time, so a
 * request that waited behind a stall counts the wait; a request never
 * sent or never answered has no latency (callers count it as failed).
 */
OpenLoopSummary summarizeOpenLoop(
    const std::vector<OpenLoopRecord> &records);

/** A point estimate with a two-sided confidence interval. */
struct Interval {
    double estimate = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Median of the paired ratios treated[i] / base[i], with a 95%
 * percentile-bootstrap interval over `resamples` resamples of the
 * pairs drawn from a generator seeded with `seed`.  The same inputs
 * and seed always give the same interval.
 */
Interval pairedRatio(const std::vector<double> &treated,
                     const std::vector<double> &base, uint64_t seed,
                     size_t resamples = 2000);

/** One recorded span: [start, end) in nanoseconds, parent or -1. */
struct Span {
    std::string name;
    std::string layer;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t op = 0;
};

/**
 * Every span's self time: its duration minus the part of its
 * interval that its direct children cover (overlapping children count
 * once, and a child reaching outside the parent is clipped to it).
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
