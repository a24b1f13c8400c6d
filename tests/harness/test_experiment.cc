/**
 * @file
 * Tests for the shared experiment drivers (on the fast test grid).
 */

#include "harness/experiment.hh"

#include <gtest/gtest.h>

#include "gpu/analytic_model.hh"
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
}

} // namespace
} // namespace harness
} // namespace gpuscale
