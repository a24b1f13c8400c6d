/**
 * @file
 * Experiment driver implementation.
 */

#include "experiment.hh"

#include <map>
#include <thread>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace harness {

CensusResult
runCensus(const gpu::PerfModel &model,
          std::optional<gpu::ConfigGrid> space,
          const scaling::TaxonomyParams &params,
          obs::ProgressReporter *progress, CensusJournal *journal,
          const CancelToken *cancel)
{
    GPUSCALE_TRACE_SCOPE("census");
    CensusResult census{
        space.value_or(gpu::ConfigGrid::paperGrid()), {}, {}};

    const auto kernels = workloads::WorkloadRegistry::instance()
                             .allKernels();
    debuglog("census: %zu kernels x %zu configs with model '%s'",
             kernels.size(), census.space.size(),
             model.name().c_str());
    // One pool region: each worker classifies the surface it just
    // built into a pre-sized slot, so the result is the classifyAll()
    // vector.
    census.classifications.resize(kernels.size());
    census.surfaces = sweepKernels(
        model, kernels, census.space, progress, journal, cancel,
        [&](size_t k, const scaling::ScalingSurface &surface) {
            census.classifications[k] =
                scaling::classifySurface(surface, params);
        });
    return census;
}

obs::RunManifest
censusManifest(const CensusResult &census, const gpu::PerfModel &model)
{
    obs::RunManifest m;
    m.command = "census";
    m.model = model.name();
    m.threads = std::thread::hardware_concurrency();
    m.num_kernels = census.surfaces.size();
    m.num_configs = census.space.size();
    m.num_estimates = census.surfaces.size() * census.space.size();
    m.cu_values = census.space.cu_values;
    m.core_clks_mhz = census.space.core_clks_mhz;
    m.mem_clks_mhz = census.space.mem_clks_mhz;
    return m;
}

std::vector<const scaling::KernelClassification *>
representativesPerClass(const CensusResult &census)
{
    std::map<scaling::TaxonomyClass,
             const scaling::KernelClassification *> best;
    for (const auto &c : census.classifications) {
        auto it = best.find(c.cls);
        if (it == best.end() || c.perf_range > it->second->perf_range)
            best[c.cls] = &c;
    }

    std::vector<const scaling::KernelClassification *> out;
    for (const auto cls : scaling::allTaxonomyClasses()) {
        auto it = best.find(cls);
        if (it != best.end())
            out.push_back(it->second);
    }
    return out;
}

const scaling::KernelClassification *
findClassification(const CensusResult &census, const std::string &kernel)
{
    for (const auto &c : census.classifications) {
        if (c.kernel == kernel)
            return &c;
    }
    return nullptr;
}

const scaling::ScalingSurface *
findSurface(const CensusResult &census, const std::string &kernel)
{
    for (const auto &surface : census.surfaces) {
        if (surface.kernelName() == kernel)
            return &surface;
    }
    return nullptr;
}

} // namespace harness
} // namespace gpuscale
