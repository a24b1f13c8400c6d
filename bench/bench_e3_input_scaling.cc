/**
 * @file
 * E3 — extension: are the non-scaling kernels fixable by bigger
 * inputs?  The paper's conclusion offers two remedies — "new
 * benchmarks or new inputs".  This experiment scales the launches of
 * every parallelism-starved and launch-bound kernel by up to 64x and
 * reports which remedy applies.
 */

#include "bench_common.hh"

#include "base/table.hh"
#include "scaling/input_scaling.hh"
#include "workloads/registry.hh"

namespace {

using namespace gpuscale;

void
BM_InputScalingStudy(benchmark::State &state)
{
    const gpu::AnalyticModel model;
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/leukocyte/mgvf_kernel");
    const auto space = gpu::ConfigGrid::paperGrid();
    for (auto _ : state) {
        auto result =
            scaling::studyInputScaling(model, *kernel, space);
        benchmark::DoNotOptimize(result.points.data());
    }
}
BENCHMARK(BM_InputScalingStudy)->Unit(benchmark::kMillisecond);

void
emit()
{
    const auto &census = bench::census();
    const gpu::AnalyticModel model;
    const auto &registry = workloads::WorkloadRegistry::instance();

    bench::banner("E3", "new benchmarks or new inputs? input-scaling "
                        "the non-scaling kernels");

    TextTable t;
    t.addColumn("kernel");
    t.addColumn("class @1x");
    t.addColumn("cu90 @1x", TextTable::Align::Right);
    t.addColumn("@4x", TextTable::Align::Right);
    t.addColumn("@16x", TextTable::Align::Right);
    t.addColumn("@64x", TextTable::Align::Right);
    t.addColumn("verdict");

    size_t fixable = 0, partial = 0, algorithmic = 0, studied = 0;
    for (const auto &c : census.classifications) {
        if (c.cls != scaling::TaxonomyClass::ParallelismStarved &&
            c.cls != scaling::TaxonomyClass::LaunchBound) {
            continue;
        }
        const auto *kernel = registry.findKernel(c.kernel);
        const auto result =
            scaling::studyInputScaling(model, *kernel, census.space);
        ++studied;
        switch (result.verdict) {
          case scaling::InputVerdict::FixableByInput: ++fixable; break;
          case scaling::InputVerdict::PartiallyFixable:
            ++partial;
            break;
          case scaling::InputVerdict::AlgorithmLimited:
            ++algorithmic;
            break;
        }
        t.row({c.kernel, scaling::taxonomyClassName(c.cls),
               strprintf("%d", result.points[0].cu90),
               strprintf("%d", result.points[1].cu90),
               strprintf("%d", result.points[2].cu90),
               strprintf("%d", result.points[3].cu90),
               scaling::inputVerdictName(result.verdict)});
    }
    std::fputs(t.render().c_str(), stdout);

    std::printf(
        "\nof %zu non-scaling kernels: %zu fixable by bigger inputs,\n"
        "%zu partially fixable, %zu algorithm-limited (need new\n"
        "benchmarks, not new inputs) — the quantitative split behind\n"
        "the paper's closing sentence.\n",
        studied, fixable, partial, algorithmic);
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
