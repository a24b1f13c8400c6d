/**
 * @file
 * The kill/resume proof: a journaled census SIGKILLed mid-run must
 * resume from its checkpoint — replaying a non-zero number of kernels
 * instead of restarting — and classify every kernel bitwise identical
 * to an uninterrupted census.
 *
 * The child process is forked before this process creates any
 * threads (forking a multi-threaded process can clone a held malloc
 * lock into the child); the parent only starts its own thread pool
 * after the fork.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <system_error>
#include <thread>

#include "base/fault.hh"
#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "obs/metrics.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace {

uint64_t
counterValue(const char *name)
{
    return obs::Registry::instance().counter(name).value();
}

TEST(CheckpointResume, KilledCensusResumesBitwiseIdentical)
{
    const gpu::AnalyticModel model;
    // Paper grid: records are ~7 KB each, so the journal's 64 KB
    // group-commit flushes roughly every 9 kernels and the parent can
    // observe progress early.
    const auto space = gpu::ConfigGrid::paperGrid();
    test::ScopedTempDir dir("ckpt_resume");
    const std::string journal_path = dir.sub("census.journal");

    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Child: a deliberately slow journaled census.  The delay
        // fault stalls every kernel sweep ~15 ms so the parent has a
        // wide window to SIGKILL between journal flushes.  _exit, not
        // exit: no destructors, like a real kill.
        FaultInjector::instance().arm(
            {{"sweep.kernel", 1.0, FaultKind::Delay, 15.0}}, 0);
        harness::CensusJournal journal(dir.path(),
                                       model.fingerprint(),
                                       space.fingerprint());
        harness::runCensus(model, space, scaling::TaxonomyParams{},
                           nullptr, &journal);
        _exit(0);
    }

    // Parent: wait for the first group-commit flush to land, then
    // kill the child without warning.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(120);
    bool saw_progress = false;
    while (std::chrono::steady_clock::now() < deadline) {
        std::error_code ec;
        const auto size =
            std::filesystem::file_size(journal_path, ec);
        if (!ec && size >= harness::CensusJournal::kFlushBytes) {
            saw_progress = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(saw_progress)
        << "journal never reached a flush before the deadline";
    // The interesting case is a genuine mid-run kill; if the child
    // somehow finished first the resume below still must hold.
    const bool killed = WIFSIGNALED(status);

    // Resume: the journal must replay a prefix of the census...
    harness::CensusJournal resumed(dir.path(), model.fingerprint(),
                                   space.fingerprint());
    ASSERT_TRUE(resumed.active());
    EXPECT_GT(resumed.loadedRecords(), 0u);
    if (killed)
        EXPECT_LT(resumed.loadedRecords(), 267u);

    const uint64_t replayed0 = counterValue("checkpoint.replayed");
    const auto resumed_census =
        harness::runCensus(model, space, scaling::TaxonomyParams{},
                           nullptr, &resumed);
    EXPECT_GT(counterValue("checkpoint.replayed"), replayed0);

    // ...and the result must be indistinguishable from a census that
    // was never interrupted.
    const auto clean = harness::runCensus(model, space);
    ASSERT_EQ(resumed_census.classifications.size(),
              clean.classifications.size());
    for (size_t i = 0; i < clean.classifications.size(); ++i) {
        const auto &c = clean.classifications[i];
        const auto &r = resumed_census.classifications[i];
        EXPECT_EQ(r.kernel, c.kernel);
        EXPECT_EQ(r.cls, c.cls) << c.kernel;
        EXPECT_EQ(r.perf_range, c.perf_range) << c.kernel;
        EXPECT_EQ(r.cu90, c.cu90) << c.kernel;
    }
    ASSERT_EQ(resumed_census.surfaces.size(), clean.surfaces.size());
    for (size_t i = 0; i < clean.surfaces.size(); ++i) {
        const auto &cr = clean.surfaces[i].runtimes();
        const auto &rr = resumed_census.surfaces[i].runtimes();
        ASSERT_EQ(rr.size(), cr.size());
        for (size_t j = 0; j < cr.size(); ++j)
            EXPECT_EQ(rr[j], cr[j]);
    }
}

} // namespace
} // namespace gpuscale
