/**
 * @file
 * Fault-injection census: with a 10% injected I/O fault rate on the
 * census-journal sites and retries disabled, a journaled census and
 * its replay must degrade (counted, absorbed) while every
 * classification and surface stays bitwise identical to a clean run.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "base/fault.hh"
#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/sweep_cache.hh"
#include "obs/fault_telemetry.hh"
#include "obs/metrics.hh"
#include "obs/retry.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace {

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

TEST(FaultCensus, DiskFaultsDegradeButNeverChangeResults)
{
    obs::installFaultTelemetry();
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::testGrid();

    // Reference: no journal, no faults.
    const auto clean = harness::runCensus(model, space);

    // Faulty runs: every journal probe (open, load, append, flush)
    // fails with 10% probability, and retries are disabled so every
    // injected fault must exhaust straight into degradation.  The
    // first run writes the journal, the second replays what
    // survived; each opens its own journal as a new process would,
    // with a cold sweep cache.
    test::ScopedTempDir journal_dir("fault_census_journal");
    const obs::RetryPolicy saved = obs::retryPolicy();
    obs::RetryPolicy no_retry = saved;
    no_retry.max_attempts = 1;
    obs::setRetryPolicy(no_retry);
    FaultInjector::instance().arm(
        {{"checkpoint.*", 0.1, FaultKind::IoError, 0.0}}, 42);

    const uint64_t degraded0 = obs::degradationCount();
    const uint64_t injected0 = counterValue("fault.injected.io");
    const auto journaled = [&] {
        harness::SweepCache::instance().clear();
        harness::CensusJournal journal(journal_dir.path(),
                                       model.fingerprint(),
                                       space.fingerprint());
        return harness::runCensus(model, space,
                                  scaling::TaxonomyParams{}, nullptr,
                                  &journal);
    };
    const auto written = journaled();
    const auto replayed = journaled();

    FaultInjector::instance().disarm();
    obs::setRetryPolicy(saved);
    harness::SweepCache::instance().clear();

    // The campaign must actually have fired and been absorbed...
    EXPECT_GT(counterValue("fault.injected.io"), injected0);
    EXPECT_GT(obs::degradationCount(), degraded0);

    // ...without perturbing a single output bit.
    for (const auto *faulty : {&written, &replayed}) {
        ASSERT_EQ(faulty->classifications.size(),
                  clean.classifications.size());
        for (size_t i = 0; i < clean.classifications.size(); ++i) {
            const auto &c = clean.classifications[i];
            const auto &f = faulty->classifications[i];
            EXPECT_EQ(f.kernel, c.kernel);
            EXPECT_EQ(f.cls, c.cls) << c.kernel;
            EXPECT_EQ(f.perf_range, c.perf_range) << c.kernel;
            EXPECT_EQ(f.cu90, c.cu90) << c.kernel;
        }
        ASSERT_EQ(faulty->surfaces.size(), clean.surfaces.size());
        for (size_t i = 0; i < clean.surfaces.size(); ++i) {
            ASSERT_EQ(faulty->surfaces[i].runtimes().size(),
                      clean.surfaces[i].runtimes().size());
            for (size_t j = 0;
                 j < clean.surfaces[i].runtimes().size(); ++j)
                EXPECT_EQ(faulty->surfaces[i].runtimes()[j],
                          clean.surfaces[i].runtimes()[j]);
        }
    }
}

} // namespace
} // namespace gpuscale
