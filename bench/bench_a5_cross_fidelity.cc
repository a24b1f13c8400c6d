/**
 * @file
 * A5 — ablation: cross-fidelity taxonomy agreement.
 *
 * The taxonomy consumes only (config → runtime) samples, so its
 * verdicts should survive swapping the measurement substrate.  This
 * experiment sweeps archetype anchors with BOTH timing models over a
 * coarse grid and compares the resulting classifications — the
 * software analogue of re-running the paper's study on a different
 * card.
 */

#include "bench_common.hh"

#include "base/table.hh"
#include "gpu/timing/event_sim.hh"
#include "harness/sweep.hh"
#include "workloads/archetypes.hh"

namespace {

using namespace gpuscale;

std::vector<gpu::KernelDesc>
anchors()
{
    using namespace workloads;
    return {
        denseCompute("xf/dense/k", {.wgs = 1024, .wi_per_wg = 256}),
        streaming("xf/stream/k", {.wgs = 2048, .wi_per_wg = 256}),
        tiledLds("xf/lds/k", {.wgs = 1024, .wi_per_wg = 256}),
        stencil("xf/sten/k", {.wgs = 1024, .wi_per_wg = 256}, 20.0),
        cacheThrash("xf/thrash/k", {.wgs = 2048, .wi_per_wg = 256},
                    18.0),
        reduction("xf/red/k", {.wgs = 1024, .wi_per_wg = 256}, 0.9),
        graphTraversal("xf/graph/k", {.wgs = 256, .wi_per_wg = 256}),
        smallGridCompute("xf/small/k", {.wgs = 12, .wi_per_wg = 256}),
        tinyIterative("xf/tiny/k",
                      {.wgs = 2, .wi_per_wg = 64, .launches = 500,
                       .intensity = 0.05}),
    };
}

/**
 * A denser grid than gpu::ConfigGrid::testGrid() so curve shapes are
 * resolvable, but far smaller than the 891-point paper grid so the
 * event model stays affordable.
 */
gpu::ConfigGrid
coarseGrid()
{
    gpu::ConfigGrid grid;
    grid.cu_values = {4, 12, 20, 28, 36, 44};
    grid.core_clks_mhz = {200.0, 400.0, 600.0, 800.0, 1000.0};
    grid.mem_clks_mhz = {150.0, 425.0, 700.0, 975.0, 1250.0};
    return grid;
}

void
BM_EventSweepAnchor(benchmark::State &state)
{
    gpu::timing::EventSimParams params;
    params.max_simulated_waves = 4096;
    const gpu::timing::EventModel model(params);
    const auto kernel = anchors()[1]; // streaming
    const auto space = coarseGrid();
    for (auto _ : state) {
        auto surface = harness::sweepKernel(model, kernel, space);
        benchmark::DoNotOptimize(surface.runtimes().data());
    }
}
BENCHMARK(BM_EventSweepAnchor)->Unit(benchmark::kMillisecond);

void
emit()
{
    bench::banner("A5", "taxonomy agreement: analytic vs event model");

    const gpu::AnalyticModel analytic;
    gpu::timing::EventSimParams params;
    params.max_simulated_waves = 4096;
    const gpu::timing::EventModel event(params);
    const auto space = coarseGrid();

    TextTable t;
    t.addColumn("kernel");
    t.addColumn("analytic class");
    t.addColumn("event class");
    t.addColumn("agree");

    size_t agree = 0;
    const auto kernels = anchors();
    for (const auto &kernel : kernels) {
        const auto ca = scaling::classifySurface(
            harness::sweepKernel(analytic, kernel, space));
        const auto ce = scaling::classifySurface(
            harness::sweepKernel(event, kernel, space));
        const bool same = ca.cls == ce.cls;
        agree += same;
        t.row({kernel.name, scaling::taxonomyClassName(ca.cls),
               scaling::taxonomyClassName(ce.cls),
               same ? "yes" : "NO"});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nagreement: %zu/%zu anchors\n", agree,
                kernels.size());
    std::printf(
        "\nreading: the classifier sees only (config, runtime)\n"
        "samples, so fidelity swaps change at most boundary verdicts\n"
        "— the property that lets the same code classify real\n"
        "hardware measurements (see `gpuscale classify`).\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
