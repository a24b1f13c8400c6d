/**
 * @file
 * SweepCache unit and concurrency tests.
 *
 * The concurrency tests run under the TSan job in CI's sanitizer
 * matrix (see .github/workflows/ci.yml), which is where lock-ordering
 * or data-race bugs in the cache would surface.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "harness/experiment.hh"
#include "harness/noise.hh"
#include "harness/parallel.hh"
#include "harness/sparse.hh"
#include "harness/sweep.hh"
#include "harness/sweep_cache.hh"
#include "obs/metrics.hh"
#include "workloads/archetypes.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

class SweepCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { harness::SweepCache::instance().clear(); }
    void TearDown() override { harness::SweepCache::instance().clear(); }
};

TEST_F(SweepCacheTest, KeyIsStableAndSensitiveToEveryInput)
{
    const gpu::AnalyticModel model;
    const auto grid = gpu::ConfigGrid::testGrid();
    const auto kernel = workloads::streaming(
        "cache/test/k", {.wgs = 64, .wi_per_wg = 256});

    const std::string key =
        harness::SweepCache::keyFor(model, kernel, grid);
    ASSERT_FALSE(key.empty());
    EXPECT_EQ(key, harness::SweepCache::keyFor(model, kernel, grid));

    // Any model input shifting must shift the key: kernel fields...
    gpu::KernelDesc other = kernel;
    other.mlp += 1.0;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, other, grid));
    other = kernel;
    other.serial_fraction = 0.25;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, other, grid));

    // ...grid axes...
    auto grid2 = grid;
    grid2.mem_clks_mhz.back() += 1.0;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, kernel, grid2));

    // ...fixed microarchitecture parameters of the base config...
    auto grid3 = grid;
    grid3.base.l2_slices *= 2;
    EXPECT_NE(key, harness::SweepCache::keyFor(model, kernel, grid3));

    // ...and model parameters.
    gpu::AnalyticParams params;
    params.atomic_retry_scale *= 2.0;
    const gpu::AnalyticModel other_model(params);
    EXPECT_NE(key,
              harness::SweepCache::keyFor(other_model, kernel, grid));
}

TEST_F(SweepCacheTest, UncacheableModelsGetEmptyKeysAndAlwaysMiss)
{
    // The base-class fingerprint is "": models must opt in, because a
    // cross-model stale hit would be silent data corruption.
    class Uncacheable : public gpu::PerfModel
    {
      public:
        gpu::KernelPerf
        estimate(const gpu::KernelDesc &k,
                 const gpu::GpuConfig &c) const override
        {
            return inner_.estimate(k, c);
        }
        std::string name() const override { return "uncacheable"; }

      private:
        gpu::AnalyticModel inner_;
    };

    const Uncacheable model;
    EXPECT_EQ(model.fingerprint(), "");
    const auto grid = gpu::ConfigGrid::testGrid();
    const auto kernel = workloads::streaming(
        "cache/test/k", {.wgs = 64, .wi_per_wg = 256});
    EXPECT_EQ(harness::SweepCache::keyFor(model, kernel, grid), "");

    std::vector<double> out;
    EXPECT_FALSE(harness::SweepCache::instance().lookup("", out));
    harness::SweepCache::instance().insert("", {1.0});
    EXPECT_EQ(harness::SweepCache::instance().entries(), 0u);
}

TEST_F(SweepCacheTest, NoisyModelIsCacheablePerSigmaAndSeed)
{
    const gpu::AnalyticModel inner;
    const harness::NoisyModel a(inner, 0.05, 1);
    const harness::NoisyModel b(inner, 0.05, 2);
    const harness::NoisyModel c(inner, 0.02, 1);

    ASSERT_FALSE(a.fingerprint().empty());
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), c.fingerprint());
    EXPECT_EQ(a.fingerprint(),
              harness::NoisyModel(inner, 0.05, 1).fingerprint());
}

TEST_F(SweepCacheTest, RepeatSweepHitsAndReturnsIdenticalRuntimes)
{
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);

    const uint64_t hits0 = counterValue("sweep.cache.hits");
    const uint64_t misses0 = counterValue("sweep.cache.misses");
    const uint64_t estimates0 = counterValue("sweep.estimates.count");

    const auto first = harness::sweepKernel(model, *kernel, space);
    EXPECT_EQ(counterValue("sweep.cache.misses"), misses0 + 1);
    EXPECT_EQ(counterValue("sweep.estimates.count"),
              estimates0 + space.size());

    const auto second = harness::sweepKernel(model, *kernel, space);
    EXPECT_EQ(counterValue("sweep.cache.hits"), hits0 + 1);
    // A hit recomputes nothing...
    EXPECT_EQ(counterValue("sweep.estimates.count"),
              estimates0 + space.size());
    // ...and returns the exact same doubles.
    ASSERT_EQ(first.runtimes().size(), second.runtimes().size());
    for (size_t i = 0; i < first.runtimes().size(); ++i)
        EXPECT_EQ(first.runtimes()[i], second.runtimes()[i]);
}

// perfbench's harness.cache_hit_ratio is hits / (hits + misses) over
// a census_cold or sparse_census run: it is only a number while both
// census paths look every kernel up in the cache.  A cold cache must
// therefore count exactly one miss per kernel for each of them.
TEST_F(SweepCacheTest, ColdCensusesMissOncePerKernel)
{
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::testGrid();
    const uint64_t kernels =
        workloads::WorkloadRegistry::instance().allKernels().size();

    uint64_t misses = counterValue("sweep.cache.misses");
    harness::runCensus(model, space);
    EXPECT_EQ(counterValue("sweep.cache.misses"), misses + kernels);

    harness::SweepCache::instance().clear();
    misses = counterValue("sweep.cache.misses");
    harness::SparseCensusOptions options;
    options.samples = 14;
    harness::runSparseCensus(model, space, options);
    EXPECT_EQ(counterValue("sweep.cache.misses"), misses + kernels);
}

TEST_F(SweepCacheTest, ConcurrentSweepsHitAndMissCoherently)
{
    // Many threads sweep the same few kernels concurrently through
    // sweepKernels(); every lookup must be either a hit or a miss
    // (lookups == hits + misses), every returned surface must be
    // bitwise identical, and TSan must stay quiet.
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const std::vector<const gpu::KernelDesc *> subset(
        kernels.begin(), kernels.begin() + 16);

    const uint64_t hits0 = counterValue("sweep.cache.hits");
    const uint64_t misses0 = counterValue("sweep.cache.misses");

    const auto reference = harness::sweepKernels(model, subset, space);

    constexpr size_t kRounds = 8;
    std::atomic<size_t> mismatches{0};
    harness::parallelFor(kRounds, [&](size_t) {
        // Nested sweepKernels calls degrade to serial inside the
        // pool, so this exercises cache lookups from worker threads.
        const auto surfaces =
            harness::sweepKernels(model, subset, space);
        for (size_t k = 0; k < surfaces.size(); ++k) {
            if (surfaces[k].runtimes() != reference[k].runtimes())
                mismatches.fetch_add(1);
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);

    const uint64_t hits = counterValue("sweep.cache.hits") - hits0;
    const uint64_t misses =
        counterValue("sweep.cache.misses") - misses0;
    // (1 + kRounds) sweeps of 16 kernels: every lookup accounted for,
    // at least one miss (the first compute) and at least one hit.
    EXPECT_EQ(hits + misses, (1 + kRounds) * subset.size());
    EXPECT_GE(misses, subset.size());
    EXPECT_GE(hits, subset.size());
}

TEST_F(SweepCacheTest, ConcurrentMixedModelsNeverCrossContaminate)
{
    // Two cacheable models with different parameters sweeping the
    // same kernels concurrently must never serve each other's data.
    const gpu::AnalyticModel clean;
    const harness::NoisyModel noisy(clean, 0.1, 3);
    const auto space = gpu::ConfigGrid::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const std::vector<const gpu::KernelDesc *> subset(
        kernels.begin(), kernels.begin() + 8);

    const auto ref_clean = harness::sweepKernels(clean, subset, space);
    const auto ref_noisy = harness::sweepKernels(noisy, subset, space);

    std::atomic<size_t> mismatches{0};
    harness::parallelFor(8, [&](size_t round) {
        const bool use_noisy = round % 2 == 1;
        const auto surfaces = harness::sweepKernels(
            use_noisy ? static_cast<const gpu::PerfModel &>(noisy)
                      : static_cast<const gpu::PerfModel &>(clean),
            subset, space);
        const auto &ref = use_noisy ? ref_noisy : ref_clean;
        for (size_t k = 0; k < surfaces.size(); ++k) {
            if (surfaces[k].runtimes() != ref[k].runtimes())
                mismatches.fetch_add(1);
        }
    });
    EXPECT_EQ(mismatches.load(), 0u);
}

} // namespace
} // namespace gpuscale
