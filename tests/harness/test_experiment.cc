/**
 * @file
 * Tests for the shared experiment drivers (on the fast test grid).
 */

#include "harness/experiment.hh"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "base/fault.hh"
#include "gpu/analytic_model.hh"
#include "harness/cancel.hh"
#include "harness/parallel.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace harness {
namespace {

const CensusResult &
testCensus()
{
    static const CensusResult census = runCensus(
        gpu::AnalyticModel{}, gpu::ConfigGrid::testGrid());
    return census;
}

void
expectSameVerdict(const scaling::ShapeVerdict &got,
                  const scaling::ShapeVerdict &want,
                  const std::string &what)
{
    EXPECT_EQ(got.shape, want.shape) << what;
    EXPECT_EQ(got.total_gain, want.total_gain) << what;
    EXPECT_EQ(got.ideal_gain, want.ideal_gain) << what;
    EXPECT_EQ(got.efficiency, want.efficiency) << what;
    EXPECT_EQ(got.monotone_fraction, want.monotone_fraction) << what;
    EXPECT_EQ(got.saturation_knob, want.saturation_knob) << what;
    EXPECT_EQ(got.linearity_r2, want.linearity_r2) << what;
}

/** runCensus's pooled classification is exactly the serial one. */
void
expectMatchesClassifyAll(const CensusResult &census)
{
    const auto serial = scaling::classifyAll(census.surfaces);
    ASSERT_EQ(census.classifications.size(), serial.size());
    for (size_t k = 0; k < serial.size(); ++k) {
        const auto &got = census.classifications[k];
        const auto &want = serial[k];
        EXPECT_EQ(got.kernel, want.kernel);
        EXPECT_EQ(got.cls, want.cls) << want.kernel;
        expectSameVerdict(got.freq, want.freq, want.kernel + " freq");
        expectSameVerdict(got.mem, want.mem, want.kernel + " mem");
        expectSameVerdict(got.cu, want.cu, want.kernel + " cu");
        EXPECT_EQ(got.perf_range, want.perf_range) << want.kernel;
        EXPECT_EQ(got.cu90, want.cu90) << want.kernel;
    }
}

TEST(ExperimentTest, CensusCoversWholeZoo)
{
    const auto &census = testCensus();
    EXPECT_EQ(census.surfaces.size(), 267u);
    EXPECT_EQ(census.classifications.size(), 267u);
    EXPECT_EQ(census.space.size(), 27u);
}

TEST(ExperimentTest, SurfacesAndClassificationsAligned)
{
    const auto &census = testCensus();
    for (size_t i = 0; i < census.surfaces.size(); ++i) {
        EXPECT_EQ(census.surfaces[i].kernelName(),
                  census.classifications[i].kernel);
    }
}

TEST(ExperimentTest, FindHelpers)
{
    const auto &census = testCensus();
    const auto *c = findClassification(
        census, "rodinia/hotspot/calculate_temp");
    ASSERT_NE(c, nullptr);
    const auto *s =
        findSurface(census, "rodinia/hotspot/calculate_temp");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(findClassification(census, "nope"), nullptr);
    EXPECT_EQ(findSurface(census, "nope"), nullptr);
}

TEST(ExperimentTest, RepresentativesAreDistinctClasses)
{
    const auto &census = testCensus();
    const auto reps = representativesPerClass(census);
    EXPECT_GE(reps.size(), 3u);
    std::set<scaling::TaxonomyClass> seen;
    for (const auto *rep : reps) {
        EXPECT_TRUE(seen.insert(rep->cls).second);
        // The representative is the widest-range member of its class.
        for (const auto &c : census.classifications) {
            if (c.cls == rep->cls) {
                EXPECT_LE(c.perf_range, rep->perf_range + 1e-12);
            }
        }
    }
}

TEST(ExperimentTest, DefaultSpaceIsPaperGrid)
{
    // Run one kernel through the default-space census path by using
    // the full census (this is the expensive path, still < 1 s).
    const auto census = runCensus(gpu::AnalyticModel{});
    EXPECT_EQ(census.space.size(), 891u);
    EXPECT_EQ(census.classifications.size(), 267u);
    expectMatchesClassifyAll(census);
}

TEST(ExperimentTest, SingleThreadClassificationMatchesClassifyAll)
{
    // A parallelFor nested in a pool worker runs serially, so a
    // census started from one classifies on that single thread.
    std::optional<CensusResult> census;
    parallelFor(2, [&](size_t i) {
        if (i == 0) {
            census = runCensus(gpu::AnalyticModel{},
                               gpu::ConfigGrid::testGrid());
        }
    }, /*max_threads=*/2);
    ASSERT_TRUE(census.has_value());
    expectMatchesClassifyAll(*census);
}

TEST(ExperimentTest, ExpiredTokenCancelsWholeCensus)
{
    CancelToken token;
    token.cancel();
    std::optional<CensusResult> census;
    EXPECT_THROW(census = runCensus(gpu::AnalyticModel{},
                                    gpu::ConfigGrid::testGrid(),
                                    scaling::TaxonomyParams{}, nullptr,
                                    nullptr, &token),
                 CancelledError);
    EXPECT_FALSE(census.has_value());
}

TEST(ExperimentTest, CensusIsOneParallelRegion)
{
    // Each participant of a parallelFor region emits one
    // parallel_for.worker span (one parallel_for.serial span on the
    // serial path), so a one-region census emits exactly as many as
    // the region had workers; a separate classification region would
    // double them.
    const std::string path =
        ::testing::TempDir() + "/census_region.trace.json";
    obs::TraceSession::start(path);
    const auto census =
        runCensus(gpu::AnalyticModel{}, gpu::ConfigGrid::testGrid());
    ASSERT_GT(obs::TraceSession::stop(), 0u);
    ASSERT_EQ(census.classifications.size(), 267u);
    const double workers =
        obs::Registry::instance().gauge("parallel.workers").value();

    std::ifstream is(path);
    ASSERT_TRUE(is);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const obs::JsonValue doc = obs::parseJson(buffer.str());
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    size_t region_spans = 0;
    for (const auto &ev : events->array) {
        const obs::JsonValue *ph = ev.find("ph");
        const obs::JsonValue *name = ev.find("name");
        if (ph != nullptr && ph->str == "X" && name != nullptr &&
            (name->str == "parallel_for.worker" ||
             name->str == "parallel_for.serial"))
            ++region_spans;
    }
    EXPECT_GE(workers, 1.0);
    EXPECT_EQ(static_cast<double>(region_spans), workers);
}

TEST(ExperimentTest, CancelDuringRegionLeavesNoCensus)
{
    // Every kernel sweep stalls, so the census is still inside its
    // region when another thread cancels the token.
    constexpr double kDelayMs = 5.0;
    FaultInjector::instance().arm(
        {{"sweep.kernel", 1.0, FaultKind::Delay, kDelayMs}}, 0);
    CancelToken token;
    std::optional<CensusResult> census;
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        token.cancel();
    });
    EXPECT_THROW(census = runCensus(gpu::AnalyticModel{},
                                    gpu::ConfigGrid::testGrid(),
                                    scaling::TaxonomyParams{}, nullptr,
                                    nullptr, &token),
                 CancelledError);
    canceller.join();
    const uint64_t stalled =
        FaultInjector::instance().fired(FaultKind::Delay);
    FaultInjector::instance().disarm();
    EXPECT_FALSE(census.has_value());
    // The region was under way, and stopped short of the zoo.
    EXPECT_GT(stalled, 0u);
    EXPECT_LT(stalled, 267u);

    // The pool and the cache survive the cancelled region.
    const auto next =
        runCensus(gpu::AnalyticModel{}, gpu::ConfigGrid::testGrid());
    EXPECT_EQ(next.classifications.size(), 267u);
    expectMatchesClassifyAll(next);
}

} // namespace
} // namespace harness
} // namespace gpuscale
