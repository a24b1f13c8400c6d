/**
 * @file
 * Keyed sweep cache.
 *
 * A full census sweeps the same (model, kernel, grid) triples over and
 * over: the T3/T5 benches re-sweep identical kernels per iteration,
 * the A4 noise study re-evaluates the clean baseline for every sigma,
 * and the daemon's census refresh re-sweeps the zoo it already holds.
 * The cache keys a sweep's runtime vector by the model fingerprint,
 * the complete kernel descriptor, and the grid fingerprint, so any
 * repeat within a process is a lookup instead of a recompute.
 *
 * The cache is process-local and in memory only (bounded FIFO).
 * Cross-process reuse — resuming a dense or sparse census in a new
 * process — is the census journal's job (checkpoint.hh).
 */

#ifndef GPUSCALE_HARNESS_SWEEP_CACHE_HH
#define GPUSCALE_HARNESS_SWEEP_CACHE_HH

#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/config_grid.hh"
#include "gpu/kernel_desc.hh"
#include "gpu/perf_model.hh"

namespace gpuscale {
namespace harness {

/** Process-wide cache of sweep runtime vectors. */
class SweepCache
{
  public:
    /** The process-wide instance the sweep harness consults. */
    static SweepCache &instance();

    /**
     * Cache key for one sweep, or "" when the model declares itself
     * uncacheable (empty fingerprint).  Folds in every KernelDesc
     * field, so two kernels differing in any model input get distinct
     * keys even when their names collide.
     */
    static std::string keyFor(const gpu::PerfModel &model,
                              const gpu::KernelDesc &kernel,
                              const gpu::ConfigGrid &grid);

    /**
     * Look up a sweep.  An empty key always misses.
     *
     * @return true and fill `runtimes` on a hit.
     */
    bool lookup(const std::string &key, std::vector<double> &runtimes);

    /** Store a sweep; no-op for an empty key. */
    void insert(const std::string &key,
                const std::vector<double> &runtimes);

    /** Drop every entry. */
    void clear();

    /** Entry count. */
    size_t entries() const;

  private:
    SweepCache() = default;

    /**
     * Entries are bounded: a census caches one entry per
     * kernel (267 on the paper suite), so the cap only matters for
     * pathological callers sweeping unbounded kernel populations.
     */
    static constexpr size_t kMaxEntries = 4096;

    // sweepKernels() workers hit the cache concurrently; every
    // field below is tied to the mutex by its guarded_by annotation
    // (enforced by the lock-discipline rule).
    mutable std::mutex mutex_;
    // guarded_by(mutex_)
    std::unordered_map<std::string, std::vector<double>> map_;
    // guarded_by(mutex_)
    std::deque<std::string> fifo_;
};

} // namespace harness
} // namespace gpuscale

#endif // GPUSCALE_HARNESS_SWEEP_CACHE_HH
