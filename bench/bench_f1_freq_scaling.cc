/**
 * @file
 * F1 — core-frequency scaling curves (5x sweep at max CUs and memory
 * clock) for one representative kernel per taxonomy class.
 */

#include "bench_common.hh"

#include "base/math_util.hh"
#include "base/plot.hh"
#include "scaling/taxonomy.hh"

namespace {

using namespace gpuscale;

void
BM_FreqCurveExtraction(benchmark::State &state)
{
    const auto &c = bench::census();
    for (auto _ : state) {
        double acc = 0;
        for (const auto &surface : c.surfaces)
            acc += surface.freqCurveAtMax().back();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_FreqCurveExtraction);

void
emit()
{
    const auto &c = bench::census();
    bench::banner("F1", "performance vs core frequency "
                        "(44 CUs, 1250 MHz memory)");

    LineChart chart("speedup over 200 MHz", "core clock (MHz)",
                    "normalized performance");
    chart.setSize(66, 18);

    std::printf("series (class: kernel, gain over the 5x sweep):\n");
    for (const auto *rep : harness::representativesPerClass(c)) {
        const auto *surface = findSurface(c, rep->kernel);
        const auto curve = surface->freqCurveAtMax();
        const auto norm = normalizeToFirst(curve);
        chart.addSeries({scaling::taxonomyClassName(rep->cls),
                         c.space.core_clks_mhz, norm});
        std::printf("  %-20s %s: %.2fx (%s)\n",
                    scaling::taxonomyClassName(rep->cls).c_str(),
                    rep->kernel.c_str(), rep->freq.total_gain,
                    scaling::shapeName(rep->freq.shape).c_str());
    }
    std::printf("\n%s\n", chart.render().c_str());
    std::printf("paper shape: compute-bound kernels track the 5x "
                "frequency range\nnearly linearly; latency- and "
                "launch-bound kernels plateau early.\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
