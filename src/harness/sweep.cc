/**
 * @file
 * Sweep harness implementation.
 *
 * The hot path is batched: each kernel is one
 * PerfModel::evaluateGridRuntimes() call (the model hoists
 * grid-invariant work into a flat SoA plan and returns the runtime
 * vector directly — no KernelPerf materialization), consulted
 * through the SweepCache first, and kernels are spread over the
 * worker pool by parallelFor().  The flat vector feeds the sweep
 * cache as-is.
 */

#include "sweep.hh"

#include <algorithm>
#include <chrono>
#include <optional>

#include "base/fault.hh"
#include "base/logging.hh"
#include "checkpoint.hh"
#include "gpu/kernel_desc.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "parallel.hh"
#include "sweep_cache.hh"

namespace gpuscale {
namespace harness {

namespace {

/** Cached instrument references for the estimate hot loop. */
struct SweepMetrics {
    obs::Counter &estimates;
    obs::Counter &kernels;
    obs::Histogram &latency;

    static SweepMetrics &
    get()
    {
        static SweepMetrics m{
            obs::Registry::instance().counter(
                "sweep.estimates.count",
                "model estimates issued by the sweep harness"),
            obs::Registry::instance().counter(
                "sweep.kernels.count", "kernels swept"),
            obs::Registry::instance().histogram(
                "sweep.estimate.latency",
                "seconds per model estimate"),
        };
        return m;
    }
};

/**
 * Sweep one kernel over the whole grid: one cache probe, then one
 * batched model evaluation on a miss.  The per-estimate latency
 * histogram is fed the batch's amortized per-point cost, and
 * sweep.estimates.count advances only for estimates actually computed
 * (cache hits are free and are counted by sweep.cache.hits).
 */
std::vector<double>
sweepOne(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
         const gpu::ConfigGrid &grid, const std::string &key)
{
    SweepMetrics &metrics = SweepMetrics::get();
    GPUSCALE_TRACE_SCOPE("sweep/" + kernel.name);
    metrics.kernels.inc();
    // Injection site: a Delay fault here slows every kernel sweep
    // (how the kill/resume tests keep a census mid-flight); Exception
    // models a crashing worker.
    faultPoint("sweep.kernel");

    std::vector<double> runtimes;
    if (SweepCache::instance().lookup(key, runtimes)) {
        debuglog("swept %s: %zu configs (cached)", kernel.name.c_str(),
                 runtimes.size());
        return runtimes;
    }

    const auto t0 = std::chrono::steady_clock::now();
    runtimes = model.evaluateGridRuntimes(kernel, grid);
    const auto t1 = std::chrono::steady_clock::now();

    metrics.estimates.inc(runtimes.size());
    metrics.latency.record(
        std::chrono::duration<double>(t1 - t0).count() /
        static_cast<double>(std::max<size_t>(1, runtimes.size())));

    SweepCache::instance().insert(key, runtimes);
    debuglog("swept %s: %zu configs", kernel.name.c_str(),
             runtimes.size());
    return runtimes;
}

} // namespace

scaling::ScalingSurface
sweepKernel(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
            const gpu::ConfigGrid &grid)
{
    const std::string key = SweepCache::keyFor(model, kernel, grid);
    return scaling::ScalingSurface(kernel.name, grid,
                                   sweepOne(model, kernel, grid, key));
}

std::vector<scaling::ScalingSurface>
sweepKernels(const gpu::PerfModel &model,
             const std::vector<const gpu::KernelDesc *> &kernels,
             const gpu::ConfigGrid &grid,
             obs::ProgressReporter *progress, CensusJournal *journal,
             const CancelToken *cancel,
             const std::function<void(size_t, const scaling::ScalingSurface &)>
                 &step)
{
    for (const auto *kernel : kernels)
        panic_if(kernel == nullptr, "sweepKernels: null kernel");

    // One pool index per kernel does that kernel's whole pipeline;
    // results go to pre-sized slots so workers never contend.
    std::vector<std::optional<scaling::ScalingSurface>> slots(
        kernels.size());
    parallelFor(kernels.size(), [&](size_t k) {
        const gpu::KernelDesc &kernel = *kernels[k];
        std::vector<double> runtimes;
        // Journal first: a replayed kernel skips the sweep (and the
        // cache) entirely, and is not re-recorded.  The cache key
        // folds the whole descriptor (a few microseconds), so it is
        // built in the worker, and only for kernels not replayed.
        if (journal == nullptr || !journal->lookup(kernel.name, runtimes)) {
            runtimes = sweepOne(model, kernel, grid,
                                SweepCache::keyFor(model, kernel, grid));
            if (journal != nullptr)
                journal->record(kernel.name, runtimes);
        }
        slots[k].emplace(kernel.name, grid, std::move(runtimes));
        if (step)
            step(k, *slots[k]);
        if (progress != nullptr)
            progress->tick();
    }, 0, cancel);

    std::vector<scaling::ScalingSurface> surfaces;
    surfaces.reserve(kernels.size());
    for (auto &slot : slots)
        surfaces.push_back(std::move(*slot));
    return surfaces;
}

} // namespace harness
} // namespace gpuscale
