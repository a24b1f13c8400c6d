/**
 * @file
 * Statistics helpers for the repo benchmark.
 */
#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <utility>

namespace perfbench {

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

bool
percentileSupported(double p, size_t n)
{
    // The tolerance keeps p = 99 with n = 1000 (exactly ten beyond)
    // from failing on the rounding of 1 - 0.99.
    return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9;
}

double
highestSupportedPercentile(size_t n)
{
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9}) {
        if (percentileSupported(p, n))
            best = p;
    }
    return best;
}

OpenLoopSummary
summarizeOpenLoop(const std::vector<OpenLoopRecord> &records)
{
    OpenLoopSummary s;
    for (const auto &r : records) {
        if (!std::isnan(r.sent_s))
            s.lag_ms.push_back((r.sent_s - r.due_s) * 1e3);
        if (!std::isnan(r.done_s))
            s.latency_ms.push_back((r.done_s - r.due_s) * 1e3);
    }
    return s;
}

Interval
pairedRatio(const std::vector<double> &treated,
            const std::vector<double> &base, uint64_t seed,
            size_t resamples)
{
    const size_t n = std::min(treated.size(), base.size());
    std::vector<double> ratios;
    ratios.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ratios.push_back(treated[i] / base[i]);

    Interval out;
    out.estimate = median(ratios);
    if (n == 0) {
        out.lo = out.hi = out.estimate;
        return out;
    }
    // mt19937_64 output is fixed by the standard; the index draw is a
    // plain modulo so no library distribution enters the result.
    std::mt19937_64 rng(seed);
    std::vector<double> medians;
    medians.reserve(resamples);
    std::vector<double> draw(n);
    for (size_t b = 0; b < resamples; ++b) {
        for (size_t i = 0; i < n; ++i)
            draw[i] = ratios[rng() % n];
        medians.push_back(median(draw));
    }
    out.lo = percentile(medians, 2.5);
    out.hi = percentile(medians, 97.5);
    return out;
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(
        spans.size());
    for (const auto &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &parent = spans[static_cast<size_t>(s.parent)];
        const int64_t lo = std::max(s.start_ns, parent.start_ns);
        const int64_t hi = std::min(s.end_ns, parent.end_ns);
        if (hi > lo)
            covered[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &children = covered[i];
        std::sort(children.begin(), children.end());
        int64_t child = 0;
        int64_t reach = std::numeric_limits<int64_t>::min();
        for (const auto &[lo, hi] : children) {
            const int64_t from = std::max(lo, reach);
            if (hi > from)
                child += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = (spans[i].end_ns - spans[i].start_ns) - child;
    }
    return self;
}

} // namespace perfbench
