/**
 * @file
 * F3 — compute-unit scaling curves (11x sweep at max clocks),
 * including the kernels that *lose* performance as CUs are added.
 */

#include "bench_common.hh"

#include <algorithm>

#include "base/math_util.hh"
#include "base/plot.hh"
#include "scaling/taxonomy.hh"

namespace {

using namespace gpuscale;

void
BM_CuCurveExtraction(benchmark::State &state)
{
    const auto &c = bench::census();
    for (auto _ : state) {
        double acc = 0;
        for (const auto &surface : c.surfaces)
            acc += surface.cuCurveAtMax().back();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_CuCurveExtraction);

void
emit()
{
    const auto &c = bench::census();
    bench::banner("F3", "performance vs compute units "
                        "(1000 MHz core, 1250 MHz memory)");

    std::vector<double> cu_knob(c.space.cu_values.begin(),
                                c.space.cu_values.end());

    LineChart chart("speedup over 4 CUs", "compute units",
                    "normalized performance");
    chart.setSize(66, 18);

    std::printf("series (class: kernel, gain over the 11x sweep):\n");
    for (const auto *rep : harness::representativesPerClass(c)) {
        const auto *surface = findSurface(c, rep->kernel);
        const auto norm = normalizeToFirst(surface->cuCurveAtMax());
        chart.addSeries({scaling::taxonomyClassName(rep->cls), cu_knob,
                         norm});
        std::printf("  %-20s %s: %.2fx (%s, cu90 = %d)\n",
                    scaling::taxonomyClassName(rep->cls).c_str(),
                    rep->kernel.c_str(), rep->cu.total_gain,
                    scaling::shapeName(rep->cu.shape).c_str(),
                    rep->cu90);
    }
    std::printf("\n%s\n", chart.render().c_str());

    // Zoom on the single most adverse kernel, full resolution.
    const scaling::KernelClassification *worst = nullptr;
    for (const auto &k : c.classifications) {
        if (k.cls == scaling::TaxonomyClass::CuAdverse &&
            (!worst || k.cu.total_gain < worst->cu.total_gain)) {
            worst = &k;
        }
    }
    if (worst) {
        const auto *surface = findSurface(c, worst->kernel);
        LineChart zoom(
            strprintf("most CU-adverse kernel: %s",
                      worst->kernel.c_str()),
            "compute units", "normalized performance");
        zoom.setSize(66, 12);
        zoom.addSeries({"perf", cu_knob,
                        normalizeToFirst(surface->cuCurveAtMax())});
        std::printf("%s\n", zoom.render().c_str());
    }
    std::printf("paper shape: intuitive kernels gain ~11x or saturate "
                "at bandwidth;\nsmall launches plateau at their "
                "workgroup count; cache-contended and\natomic-heavy "
                "kernels peak early and then lose performance.\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
