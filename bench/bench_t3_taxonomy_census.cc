/**
 * @file
 * T3 — the headline result: taxonomy class populations across the
 * full census (267 kernels x 891 configurations).
 *
 * The benchmark times the end-to-end census (the paper's entire data
 * collection + classification pipeline) and a single-kernel sweep.
 */

#include "bench_common.hh"

#include "harness/sweep_cache.hh"
#include "scaling/report.hh"
#include "workloads/registry.hh"

namespace {

using namespace gpuscale;

void
BM_FullCensus(benchmark::State &state)
{
    const gpu::AnalyticModel model;
    for (auto _ : state) {
        // Measure the compute, not a SweepCache hit.
        harness::SweepCache::instance().clear();
        auto result = harness::runCensus(model);
        benchmark::DoNotOptimize(result.classifications.size());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            267 * 891);
}
BENCHMARK(BM_FullCensus)->Unit(benchmark::kMillisecond);

void
BM_SingleKernelSweep(benchmark::State &state)
{
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::paperGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    for (auto _ : state) {
        harness::SweepCache::instance().clear();
        auto surface = harness::sweepKernel(model, *kernel, space);
        benchmark::DoNotOptimize(surface.runtimes().data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            891);
}
BENCHMARK(BM_SingleKernelSweep)->Unit(benchmark::kMicrosecond);

void
BM_ClassifyAll(benchmark::State &state)
{
    const auto &c = bench::census();
    for (auto _ : state) {
        auto classifications = scaling::classifyAll(c.surfaces);
        benchmark::DoNotOptimize(classifications.size());
    }
}
BENCHMARK(BM_ClassifyAll)->Unit(benchmark::kMicrosecond);

void
emit()
{
    const auto &c = bench::census();
    bench::banner("T3", "taxonomy class populations (267 kernels x "
                        "891 configurations)");
    std::fputs(
        scaling::classHistogramTable(c.classifications).render()
            .c_str(),
        stdout);
    std::printf(
        "\npaper shape: a majority of kernels scale intuitively with\n"
        "compute or bandwidth; 'a number of kernels' scale in\n"
        "non-obvious ways (CU-adverse, plateau, launch-bound).\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
