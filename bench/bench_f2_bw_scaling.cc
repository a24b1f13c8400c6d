/**
 * @file
 * F2 — memory-bandwidth scaling curves (8.3x sweep at max CUs and
 * core clock) for one representative kernel per taxonomy class.
 */

#include "bench_common.hh"

#include "base/math_util.hh"
#include "base/plot.hh"
#include "scaling/taxonomy.hh"

namespace {

using namespace gpuscale;

void
BM_MemCurveExtraction(benchmark::State &state)
{
    const auto &c = bench::census();
    for (auto _ : state) {
        double acc = 0;
        for (const auto &surface : c.surfaces)
            acc += surface.memCurveAtMax().back();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_MemCurveExtraction);

void
emit()
{
    const auto &c = bench::census();
    bench::banner("F2", "performance vs memory clock "
                        "(44 CUs, 1000 MHz core)");

    LineChart chart("speedup over 150 MHz", "memory clock (MHz)",
                    "normalized performance");
    chart.setSize(66, 18);

    std::printf("series (class: kernel, gain over the 8.3x sweep):\n");
    for (const auto *rep : harness::representativesPerClass(c)) {
        const auto *surface = findSurface(c, rep->kernel);
        const auto norm = normalizeToFirst(surface->memCurveAtMax());
        chart.addSeries({scaling::taxonomyClassName(rep->cls),
                         c.space.mem_clks_mhz, norm});
        std::printf("  %-20s %s: %.2fx (%s)\n",
                    scaling::taxonomyClassName(rep->cls).c_str(),
                    rep->kernel.c_str(), rep->mem.total_gain,
                    scaling::shapeName(rep->mem.shape).c_str());
    }
    std::printf("\n%s\n", chart.render().c_str());
    std::printf("paper shape: bandwidth-bound kernels track the 8.3x "
                "range; compute-\nand launch-bound kernels are flat; "
                "latency-bound kernels saturate.\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
