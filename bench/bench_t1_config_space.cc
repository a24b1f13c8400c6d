/**
 * @file
 * T1 — the hardware configuration space.
 *
 * Reproduces the study-space table: 11 CU settings x 9 core clocks x
 * 9 memory clocks = 891 configurations (11x / 5x / 8.33x ranges, as
 * in the paper's abstract).  The benchmark times grid construction
 * and enumeration.
 */

#include "bench_common.hh"

#include "scaling/report.hh"

namespace {

using namespace gpuscale;

void
BM_BuildPaperGrid(benchmark::State &state)
{
    for (auto _ : state) {
        auto space = gpu::ConfigGrid::paperGrid();
        benchmark::DoNotOptimize(space.size());
    }
}
BENCHMARK(BM_BuildPaperGrid);

void
BM_EnumerateConfigs(benchmark::State &state)
{
    const auto space = gpu::ConfigGrid::paperGrid();
    for (auto _ : state) {
        double acc = 0;
        for (size_t i = 0; i < space.size(); ++i)
            acc += space.at(i).peakGflops();
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(space.size()));
}
BENCHMARK(BM_EnumerateConfigs);

void
emit()
{
    const auto space = gpu::ConfigGrid::paperGrid();
    bench::banner("T1", "hardware configuration space");
    std::fputs(scaling::configSpaceTable(space).render().c_str(),
               stdout);
    std::printf("\nextremes:\n  min: %s\n  max: %s\n",
                space.minConfig().describe().c_str(),
                space.maxConfig().describe().c_str());
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
