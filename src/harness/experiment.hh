/**
 * @file
 * Shared experiment drivers.
 *
 * Each reproduced table/figure (see DESIGN.md's per-experiment index)
 * is generated by a function here, so the bench binaries, tests, and
 * examples all run the *same* code path.
 */

#ifndef GPUSCALE_HARNESS_EXPERIMENT_HH
#define GPUSCALE_HARNESS_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "obs/run_manifest.hh"
#include "scaling/cluster.hh"
#include "scaling/suite_analysis.hh"
#include "scaling/taxonomy.hh"
#include "sweep.hh"

namespace gpuscale {
namespace harness {

class CensusJournal;

/** Full-census result: every zoo kernel over the full grid. */
struct CensusResult {
    gpu::ConfigGrid space;
    std::vector<scaling::ScalingSurface> surfaces;
    std::vector<scaling::KernelClassification> classifications;
};

/**
 * Run the paper's census: all 267 zoo kernels over the given grid
 * (defaults to the 891-point paper grid) with the analytic model.
 *
 * @param progress optional reporter ticked once per swept kernel.
 * @param journal optional checkpoint journal (checkpoint.hh): done
 *        kernels are replayed, fresh ones recorded, so an
 *        interrupted census resumes instead of restarting.
 * @param cancel optional cooperative-cancellation token: an expired
 *        token aborts the sweep with CancelledError, leaving the
 *        journal resumable (the service drain path relies on this).
 */
CensusResult runCensus(
    const gpu::PerfModel &model,
    std::optional<gpu::ConfigGrid> space = std::nullopt,
    const scaling::TaxonomyParams &params = scaling::TaxonomyParams{},
    obs::ProgressReporter *progress = nullptr,
    CensusJournal *journal = nullptr,
    const CancelToken *cancel = nullptr);

/**
 * Start a run manifest describing a census: model name, kernel and
 * grid counts, and the grid axes.  The caller stamps command/argv,
 * timing (obs::ManifestTimer), and any extras before writing it next
 * to the report output.
 */
obs::RunManifest censusManifest(const CensusResult &census,
                                const gpu::PerfModel &model);

/**
 * Pick one representative kernel per taxonomy class (the member whose
 * whole-grid perf_range is largest, i.e. the most vivid example).
 * Classes with no members are skipped.
 */
std::vector<const scaling::KernelClassification *>
representativesPerClass(const CensusResult &census);

/** Find a classification by kernel name; nullptr when absent. */
const scaling::KernelClassification *findClassification(
    const CensusResult &census, const std::string &kernel);

/** Find a surface by kernel name; nullptr when absent. */
const scaling::ScalingSurface *findSurface(const CensusResult &census,
                                           const std::string &kernel);

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_EXPERIMENT_HH
