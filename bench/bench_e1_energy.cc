/**
 * @file
 * E1 — extension: energy efficiency across the configuration grid.
 *
 * The scaling taxonomy's power-management payoff: for each class
 * representative, find the performance-optimal and the
 * efficiency-optimal configuration.  Kernels that cannot use a knob
 * should shed it — and their efficiency-optimal machine is much
 * smaller/slower than the flagship.
 */

#include "bench_common.hh"

#include "base/table.hh"
#include "gpu/power_model.hh"
#include "workloads/registry.hh"

namespace {

using namespace gpuscale;

void
BM_PowerEvaluationGrid(benchmark::State &state)
{
    const gpu::AnalyticModel timing;
    const gpu::PowerModel power;
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    const auto space = gpu::ConfigGrid::paperGrid();
    for (auto _ : state) {
        double acc = 0;
        for (size_t i = 0; i < space.size(); ++i) {
            const auto cfg = space.at(i);
            acc += power.evaluate(cfg, timing.estimate(*kernel, cfg))
                       .energy_j;
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            891);
}
BENCHMARK(BM_PowerEvaluationGrid)->Unit(benchmark::kMillisecond);

void
emit()
{
    const auto &census = bench::census();
    const gpu::AnalyticModel timing;
    const gpu::PowerModel power;
    const auto &registry = workloads::WorkloadRegistry::instance();

    bench::banner("E1", "performance-optimal vs efficiency-optimal "
                        "configurations");

    TextTable t;
    t.addColumn("class");
    t.addColumn("kernel");
    t.addColumn("perf-optimal");
    t.addColumn("eff-optimal");
    t.addColumn("eff gain", TextTable::Align::Right);
    t.addColumn("perf kept", TextTable::Align::Right);

    for (const auto *rep : harness::representativesPerClass(census)) {
        const auto *kernel = registry.findKernel(rep->kernel);

        size_t best_perf = 0, best_eff = 0;
        double best_time = 1e300, best_ppw = 0;
        std::vector<double> times(census.space.size());
        std::vector<double> ppws(census.space.size());
        for (size_t i = 0; i < census.space.size(); ++i) {
            const auto cfg = census.space.at(i);
            const auto perf = timing.estimate(*kernel, cfg);
            const auto pw = power.evaluate(cfg, perf);
            times[i] = perf.time_s;
            ppws[i] = pw.perf_per_watt;
            if (perf.time_s < best_time) {
                best_time = perf.time_s;
                best_perf = i;
            }
            if (pw.perf_per_watt > best_ppw) {
                best_ppw = pw.perf_per_watt;
                best_eff = i;
            }
        }

        t.row({scaling::taxonomyClassName(rep->cls),
               rep->kernel,
               census.space.at(best_perf).id(),
               census.space.at(best_eff).id(),
               strprintf("%.1fx", ppws[best_eff] / ppws[best_perf]),
               strprintf("%.0f%%",
                         100.0 * times[best_perf] / times[best_eff])});
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf(
        "\n'eff gain' = perf/W at the efficiency-optimal point over\n"
        "perf/W at the performance-optimal point; 'perf kept' = share\n"
        "of peak performance the efficient point retains.  Kernels\n"
        "that cannot use a knob shed it entirely (launch-bound kernels\n"
        "drop to the smallest machine at large efficiency gains),\n"
        "while core-bound kernels keep the full shader array.\n");
}

} // namespace

GPUSCALE_BENCH_MAIN(emit)
