/**
 * @file
 * Sparse census driver implementation.
 */

#include "sparse.hh"

#include <chrono>
#include <thread>

#include "base/fault.hh"
#include "base/logging.hh"
#include "checkpoint.hh"
#include "gpu/kernel_desc.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "parallel.hh"
#include "sweep_cache.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace harness {

namespace {

/** Cached instrument references for the sparse hot loop. */
struct SparseMetrics {
    obs::Counter &samples;
    obs::Histogram &fit_latency;
    obs::Histogram &agreement;

    static SparseMetrics &
    get()
    {
        static SparseMetrics m{
            obs::Registry::instance().counter(
                "sparse.samples.count",
                "configurations measured by the sparse census"),
            obs::Registry::instance().histogram(
                "sparse.fit.latency",
                "seconds per sparse surface reconstruction"),
            obs::Registry::instance().histogram(
                "sparse.agreement",
                "per-kernel ensemble classification agreement"),
        };
        return m;
    }
};

/**
 * Cache key for one kernel's sample plan: the full-sweep key plus
 * everything the plan depends on.  Empty when the model is
 * uncacheable (empty full-sweep key).
 */
std::string
sparseKeyFor(const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
             const gpu::ConfigGrid &grid,
             const SparseCensusOptions &options)
{
    const std::string base = SweepCache::keyFor(model, kernel, grid);
    if (base.empty())
        return "";
    return base + "|sparse|" +
           scaling::samplerKindName(options.sampler) +
           "|k=" + std::to_string(options.samples) +
           "|seed=" + std::to_string(options.seed) +
           "|e=" + std::to_string(options.ensemble);
}

/**
 * Journal record name for one kernel's sample plan.  The journal
 * header already pins the model and grid; the name adds the plan
 * inputs.  It must not contain '|', which ends the name in the
 * journal's record framing (checkpoint.hh), and it cannot collide
 * with a dense record, which is the bare kernel name.  The sampler
 * field is always "lhs" now, but it stays in the name so journals
 * written by earlier builds keep resuming.
 */
std::string
sparseRecordName(const gpu::KernelDesc &kernel,
                 const SparseCensusOptions &options)
{
    return kernel.name + "@sparse:" +
           scaling::samplerKindName(options.sampler) +
           ":k=" + std::to_string(options.samples) +
           ":seed=" + std::to_string(options.seed) +
           ":e=" + std::to_string(options.ensemble);
}

/**
 * The measured plan round-trips through the cache and the journal as
 * a flat [index, runtime, index, runtime, ...] double vector; indices
 * are grid positions (< 4096 on the paper grid), far inside double's
 * exact-integer range.
 */
std::vector<double>
packSamples(const std::vector<size_t> &indices,
            const std::vector<double> &runtimes)
{
    std::vector<double> packed;
    packed.reserve(indices.size() * 2);
    for (size_t s = 0; s < indices.size(); ++s) {
        packed.push_back(static_cast<double>(indices[s]));
        packed.push_back(runtimes[s]);
    }
    return packed;
}

bool
unpackSamples(const std::vector<double> &packed, size_t grid_size,
              std::vector<size_t> &indices, std::vector<double> &runtimes)
{
    if (packed.empty() || packed.size() % 2 != 0)
        return false;
    indices.clear();
    runtimes.clear();
    for (size_t p = 0; p < packed.size(); p += 2) {
        const double idx = packed[p];
        if (idx < 0 || idx >= static_cast<double>(grid_size) ||
            idx != static_cast<double>(static_cast<size_t>(idx)))
        {
            return false;
        }
        indices.push_back(static_cast<size_t>(idx));
        runtimes.push_back(packed[p + 1]);
    }
    return true;
}

} // namespace

scaling::SparseReconstruction
sparseSweepKernel(const gpu::PerfModel &model,
                  const gpu::KernelDesc &kernel,
                  const scaling::SparsePredictor &predictor,
                  const SparseCensusOptions &options,
                  const scaling::TaxonomyParams &params,
                  CensusJournal *journal)
{
    SparseMetrics &metrics = SparseMetrics::get();
    GPUSCALE_TRACE_SCOPE("sparse/" + kernel.name);
    // Same injection site as the dense sweep: a sparse census is
    // still a sweep, and the fault tests drive both through it.
    faultPoint("sweep.kernel");

    const gpu::ConfigGrid &space = predictor.space();
    const std::string key = sparseKeyFor(model, kernel, space, options);

    const std::string record =
        journal != nullptr ? sparseRecordName(kernel, options) : "";

    std::vector<size_t> indices;
    std::vector<double> runtimes;
    std::vector<double> packed;
    // Journal first, as in the dense sweep: a replayed plan skips the
    // cache, and recording it again below is a no-op.
    bool measured =
        journal != nullptr && journal->lookup(record, packed) &&
        unpackSamples(packed, space.size(), indices, runtimes);
    if (!measured && !key.empty() &&
        SweepCache::instance().lookup(key, packed) &&
        unpackSamples(packed, space.size(), indices, runtimes))
    {
        measured = true;
        debuglog("sparse %s: %zu samples (cached)", kernel.name.c_str(),
                 indices.size());
    }

    if (!measured) {
        // The scalar estimate() is bitwise-identical to the batched
        // grid walk (the differential tests assert it), so sampled
        // points agree exactly with what a dense sweep would report.
        indices = predictor.lhsPlan(options.samples);
        runtimes.reserve(indices.size());
        for (const size_t flat : indices)
            runtimes.push_back(model.estimate(kernel, space.at(flat)).time_s);
        packed = packSamples(indices, runtimes);
        SweepCache::instance().insert(key, packed);
        debuglog("sparse %s: %zu samples", kernel.name.c_str(),
                 indices.size());
    }
    if (journal != nullptr)
        journal->record(record, packed);

    metrics.samples.inc(indices.size());

    const auto t0 = std::chrono::steady_clock::now();
    scaling::SparseReconstruction rec =
        predictor.reconstruct(kernel.name, indices, runtimes, params);
    const auto t1 = std::chrono::steady_clock::now();
    metrics.fit_latency.record(
        std::chrono::duration<double>(t1 - t0).count());
    metrics.agreement.record(rec.confidence);
    return rec;
}

SparseCensusResult
runSparseCensus(const gpu::PerfModel &model,
                std::optional<gpu::ConfigGrid> space,
                const SparseCensusOptions &options,
                const scaling::TaxonomyParams &params,
                obs::ProgressReporter *progress,
                CensusJournal *journal)
{
    GPUSCALE_TRACE_SCOPE("sparse_census");
    SparseCensusResult census{
        space.value_or(gpu::ConfigGrid::paperGrid()),
        options,
        {},
        {},
    };

    scaling::SparseFitOptions fit;
    fit.seed = options.seed;
    fit.ensemble = options.ensemble;
    const scaling::SparsePredictor predictor(census.space, fit);

    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    debuglog("sparse census: %zu kernels x %zu/%zu configs (%s) with "
             "model '%s'",
             kernels.size(), options.samples, census.space.size(),
             scaling::samplerKindName(options.sampler).c_str(),
             model.name().c_str());

    // As in the dense sweepKernels(): one pool index per kernel,
    // results into pre-sized slots.
    std::vector<std::optional<scaling::SparseReconstruction>> slots(
        kernels.size());
    parallelFor(kernels.size(), [&](size_t k) {
        slots[k] = sparseSweepKernel(model, *kernels[k], predictor,
                                     options, params, journal);
        if (progress != nullptr)
            progress->tick();
    });

    census.reconstructions.reserve(kernels.size());
    census.classifications.reserve(kernels.size());
    for (auto &slot : slots) {
        panic_if(!slot.has_value(), "sparse census: missing kernel");
        census.classifications.push_back(slot->cls);
        census.reconstructions.push_back(std::move(*slot));
    }
    return census;
}

obs::RunManifest
sparseCensusManifest(const SparseCensusResult &census,
                     const gpu::PerfModel &model)
{
    obs::RunManifest m;
    m.command = "census";
    m.model = model.name();
    m.threads = std::thread::hardware_concurrency();
    m.num_kernels = census.reconstructions.size();
    m.num_configs = census.space.size();
    m.num_estimates =
        census.reconstructions.size() * census.options.samples;
    m.cu_values = census.space.cu_values;
    m.core_clks_mhz = census.space.core_clks_mhz;
    m.mem_clks_mhz = census.space.mem_clks_mhz;
    m.extra["sparse.sampler"] =
        scaling::samplerKindName(census.options.sampler);
    m.extra["sparse.samples"] =
        std::to_string(census.options.samples);
    m.extra["sparse.seed"] = std::to_string(census.options.seed);
    m.extra["sparse.ensemble"] =
        std::to_string(census.options.ensemble);
    return m;
}

double
sparseAgreement(const SparseCensusResult &sparse,
                const std::vector<scaling::KernelClassification> &dense)
{
    size_t compared = 0, matched = 0;
    for (const auto &sc : sparse.classifications) {
        for (const auto &dc : dense) {
            if (dc.kernel != sc.kernel)
                continue;
            ++compared;
            matched += dc.cls == sc.cls;
            break;
        }
    }
    if (compared == 0)
        return 1.0;
    return static_cast<double>(matched) /
           static_cast<double>(compared);
}

} // namespace harness
} // namespace gpuscale
