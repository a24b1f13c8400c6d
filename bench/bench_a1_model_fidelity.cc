/**
 * @file
 * A1 — ablation: analytic vs discrete-event model.  Compares the two
 * fidelities on anchor kernels across the grid extremes and reports
 * runtime-ratio error plus the simulation-speed gap that justifies
 * using the analytic model for the 238k-point census.
 */

#include "bench_common.hh"

#include <cmath>

#include "base/math_util.hh"
#include "base/table.hh"
#include "gpu/timing/event_sim.hh"
#include "workloads/archetypes.hh"

namespace {

using namespace gpuscale;

std::vector<gpu::KernelDesc>
anchorKernels()
{
    using namespace workloads;
    return {
        denseCompute("anchor/dense/k", {.wgs = 1024, .wi_per_wg = 256}),
        streaming("anchor/stream/k", {.wgs = 1024, .wi_per_wg = 256}),
        tiledLds("anchor/lds/k", {.wgs = 1024, .wi_per_wg = 256}),
        stencil("anchor/sten/k", {.wgs = 1024, .wi_per_wg = 256},
                20.0),
        reduction("anchor/red/k", {.wgs = 512, .wi_per_wg = 256}, 0.5),
        graphTraversal("anchor/graph/k",
                       {.wgs = 256, .wi_per_wg = 256}),
        smallGridCompute("anchor/small/k", {.wgs = 16,
                                            .wi_per_wg = 256}),
    };
}

std::vector<gpu::GpuConfig>
probeConfigs()
{
    const auto space = gpu::ConfigGrid::paperGrid();
    return {space.minConfig(), space.at(5, 4, 4), space.maxConfig()};
}

void
BM_AnalyticEstimate(benchmark::State &state)
{
    const gpu::AnalyticModel model;
    const auto kernels = anchorKernels();
    const auto cfg = gpu::makeMaxConfig();
    for (auto _ : state) {
        for (const auto &k : kernels)
            benchmark::DoNotOptimize(model.estimate(k, cfg).time_s);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(kernels.size()));
}
BENCHMARK(BM_AnalyticEstimate);

void
BM_EventEstimate(benchmark::State &state)
{
    const gpu::timing::EventModel model;
    const auto kernels = anchorKernels();
    const auto cfg = gpu::makeMaxConfig();
    for (auto _ : state) {
        for (const auto &k : kernels)
            benchmark::DoNotOptimize(model.estimate(k, cfg).time_s);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(kernels.size()));
}
BENCHMARK(BM_EventEstimate)->Unit(benchmark::kMillisecond);

void
emit()
{
    const gpu::AnalyticModel analytic;
    const gpu::timing::EventModel event;

    bench::banner("A1", "analytic vs discrete-event model fidelity");

    TextTable t;
    t.addColumn("kernel");
    t.addColumn("config");
    t.addColumn("event (us)", TextTable::Align::Right);
    t.addColumn("analytic (us)", TextTable::Align::Right);
    t.addColumn("ratio", TextTable::Align::Right);

    std::vector<double> ratios;
    for (const auto &kernel : anchorKernels()) {
        for (const auto &cfg : probeConfigs()) {
            const double te = event.estimate(kernel, cfg).time_s;
            const double ta = analytic.estimate(kernel, cfg).time_s;
            ratios.push_back(te / ta);
            t.row({kernel.name, cfg.id(),
                   strprintf("%.2f", te * 1e6),
                   strprintf("%.2f", ta * 1e6),
                   strprintf("%.2f", te / ta)});
        }
    }
    std::fputs(t.render().c_str(), stdout);

    std::vector<double> abs_err;
    for (double r : ratios)
        abs_err.push_back(std::abs(std::log(r)));
    std::printf(
        "\nagreement: geomean |log-ratio| = %.3f "
        "(ratio spread %.2f .. %.2f)\n",
        mean(abs_err), *std::min_element(ratios.begin(), ratios.end()),
        *std::max_element(ratios.begin(), ratios.end()));
    std::printf(
        "the analytic model (see timed section) is ~10^3-10^4x faster,"
        "\nwhich is what makes the 267x891 census interactive.\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
