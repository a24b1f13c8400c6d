/**
 * @file
 * Quickstart: estimate one kernel on two machines, then sweep the
 * full 891-configuration study grid and classify its scaling.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "gpu/analytic_model.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_desc.hh"
#include "harness/sweep.hh"
#include "scaling/taxonomy.hh"

int
main()
{
    using namespace gpuscale;

    // 1. Describe a kernel: a bandwidth-hungry streaming pass.
    gpu::KernelDesc kernel;
    kernel.name = "demo/quickstart/stream_copy";
    kernel.num_workgroups = 8192;
    kernel.work_items_per_wg = 256;
    kernel.valu_ops = 20;
    kernel.mem_loads = 8;
    kernel.mem_stores = 4;
    kernel.l1_reuse = 0.05;
    kernel.l2_reuse = 0.05;
    kernel.mlp = 8;

    // 2. Estimate it on the extremes of the studied hardware range.
    const gpu::AnalyticModel model;
    for (const auto &cfg : {gpu::makeMinConfig(), gpu::makeMaxConfig()}) {
        const gpu::KernelPerf perf = model.estimate(kernel, cfg);
        std::printf("%-34s %8.1f us  bound by %-8s %.0f GB/s DRAM\n",
                    cfg.describe().c_str(), perf.time_s * 1e6,
                    gpu::boundResourceName(perf.bound).c_str(),
                    perf.achieved_dram_bw / 1e9);
    }

    // 3. Sweep the full 891-point grid and classify the scaling.
    const auto space = gpu::ConfigGrid::paperGrid();
    const auto surface = harness::sweepKernel(model, kernel, space);
    const auto cls = scaling::classifySurface(surface);

    std::printf("\nclassification: %s\n",
                scaling::taxonomyClassName(cls.cls).c_str());
    std::printf("  core-frequency response: %-9s (%.2fx over 5x)\n",
                scaling::shapeName(cls.freq.shape).c_str(),
                cls.freq.total_gain);
    std::printf("  memory-clock response:   %-9s (%.2fx over 8.3x)\n",
                scaling::shapeName(cls.mem.shape).c_str(),
                cls.mem.total_gain);
    std::printf("  compute-unit response:   %-9s (%.2fx over 11x, "
                "90%% of peak at %d CUs)\n",
                scaling::shapeName(cls.cu.shape).c_str(),
                cls.cu.total_gain, cls.cu90);
    return 0;
}
