/**
 * @file
 * F6 — frequency x bandwidth interaction heatmaps at 44 CUs: the
 * evidence for kernels that plateau as frequency and bandwidth are
 * increased, versus kernels that keep consuming one knob.
 */

#include "bench_common.hh"

#include "base/plot.hh"
#include "base/string_util.hh"
#include "scaling/taxonomy.hh"

namespace {

using namespace gpuscale;

void
BM_ClockPlaneExtraction(benchmark::State &state)
{
    const auto &c = bench::census();
    const size_t max_cu = c.space.numCu() - 1;
    for (auto _ : state) {
        double acc = 0;
        for (const auto &surface : c.surfaces)
            acc += surface.clockPlane(max_cu).back();
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ClockPlaneExtraction);

void
printPlane(const harness::CensusResult &c, const std::string &kernel,
           const std::string &label)
{
    const auto *surface = findSurface(c, kernel);
    if (!surface)
        return;

    std::vector<std::string> rows, cols;
    for (const double clk : c.space.core_clks_mhz)
        rows.push_back(formatDouble(clk, 0));
    for (const double clk : c.space.mem_clks_mhz)
        cols.push_back(formatDouble(clk, 0));

    // Normalize to the plane's worst corner for readability.
    auto plane = surface->clockPlane(c.space.numCu() - 1);
    const double base =
        *std::min_element(plane.begin(), plane.end());
    for (double &v : plane)
        v /= base;

    Heatmap hm(strprintf("%s — %s (rows: core MHz, cols: mem MHz, "
                         "normalized perf)",
                         label.c_str(), kernel.c_str()),
               rows, cols, plane);
    std::printf("%s\n", hm.render().c_str());
}

void
emit()
{
    const auto &c = bench::census();
    bench::banner("F6", "frequency x bandwidth interaction at 44 CUs");

    // One plane per illustrative class: balanced (diagonal ridge),
    // latency-bound (plateaus in both), core-bound (rows only),
    // memory-bound (columns only).
    for (const auto *rep : harness::representativesPerClass(c)) {
        switch (rep->cls) {
          case scaling::TaxonomyClass::Balanced:
          case scaling::TaxonomyClass::LatencyBound:
          case scaling::TaxonomyClass::CoreBound:
          case scaling::TaxonomyClass::MemoryBound:
            printPlane(c, rep->kernel,
                       scaling::taxonomyClassName(rep->cls));
            break;
          default:
            break;
        }
    }
    std::printf(
        "paper shape: core-bound kernels vary along rows only,\n"
        "memory-bound along columns only; balanced kernels show a\n"
        "diagonal ridge; latency-bound kernels saturate toward the\n"
        "bottom-right plateau.\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
