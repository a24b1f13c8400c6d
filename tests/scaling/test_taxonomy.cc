/**
 * @file
 * Tests for the taxonomy classifier on synthetic surfaces whose
 * generating law fixes the expected class.
 */

#include "scaling/taxonomy.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

namespace gpuscale {
namespace scaling {
namespace {

/**
 * Build a surface from a runtime law runtime(cus, core_mhz, mem_mhz).
 */
ScalingSurface
surfaceFromLaw(const std::string &name,
               const std::function<double(double, double, double)> &law)
{
    const gpu::ConfigGrid space = gpu::ConfigGrid::paperGrid();
    std::vector<double> runtimes(space.size());
    for (size_t i = 0; i < space.size(); ++i) {
        const auto cfg = space.at(i);
        runtimes[i] =
            law(cfg.num_cus, cfg.core_clk_mhz, cfg.mem_clk_mhz);
    }
    return ScalingSurface(name, space, std::move(runtimes));
}

TEST(TaxonomyTest, CoreBoundLaw)
{
    const auto s = surfaceFromLaw("x/core/k",
                                  [](double cu, double core, double) {
                                      return 1e6 / (cu * core);
                                  });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::CoreBound)
        << taxonomyClassName(c.cls);
    EXPECT_EQ(c.freq.shape, CurveShape::Linear);
    EXPECT_EQ(c.mem.shape, CurveShape::Flat);
}

TEST(TaxonomyTest, MemoryBoundLaw)
{
    const auto s = surfaceFromLaw("x/mem/k",
                                  [](double, double, double mem) {
                                      return 1e6 / mem;
                                  });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::MemoryBound)
        << taxonomyClassName(c.cls);
    EXPECT_EQ(c.mem.shape, CurveShape::Linear);
}

TEST(TaxonomyTest, BalancedLaw)
{
    // Runtime bound by whichever clock domain is slower; at the grid
    // corner both knobs matter.
    const auto s = surfaceFromLaw(
        "x/bal/k", [](double, double core, double mem) {
            return std::max(1e6 / core, 6e5 / mem);
        });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::Balanced)
        << taxonomyClassName(c.cls);
    EXPECT_GT(c.freq.total_gain, 1.6);
    EXPECT_GT(c.mem.total_gain, 1.6);
}

TEST(TaxonomyTest, LatencyBoundLaw)
{
    // Memory latency dominates: core clock helps until the fixed
    // latency floor is hit, the memory clock never helps (latency is
    // clock invariant), and CUs add concurrency roughly linearly.
    const auto s = surfaceFromLaw(
        "x/lat/k", [](double cu, double core, double) {
            return (std::max(800.0, 4e5 / core) + 400.0) * 16.0 /
                   std::min(cu, 40.0);
        });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::LatencyBound)
        << taxonomyClassName(c.cls);
    EXPECT_EQ(c.freq.shape, CurveShape::Plateau);
    EXPECT_EQ(c.mem.shape, CurveShape::Flat);
}

TEST(TaxonomyTest, ParallelismStarvedLaw)
{
    // Scales with core clock but CU scaling stops at 12.
    const auto s = surfaceFromLaw(
        "x/starve/k", [](double cu, double core, double) {
            return 1e6 / (std::min(cu, 12.0) * core);
        });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::ParallelismStarved)
        << taxonomyClassName(c.cls);
    EXPECT_LE(c.cu90, 16);
}

TEST(TaxonomyTest, CuAdverseLaw)
{
    const auto s = surfaceFromLaw(
        "x/adv/k", [](double cu, double core, double) {
            return (1e5 + 3e4 * cu) / core;
        });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::CuAdverse)
        << taxonomyClassName(c.cls);
    EXPECT_EQ(c.cu.shape, CurveShape::Adverse);
}

TEST(TaxonomyTest, LaunchBoundLaw)
{
    const auto s = surfaceFromLaw(
        "x/launch/k",
        [](double, double, double) { return 42.0; });
    const auto c = classifySurface(s);
    EXPECT_EQ(c.cls, TaxonomyClass::LaunchBound)
        << taxonomyClassName(c.cls);
    EXPECT_NEAR(c.perf_range, 1.0, 1e-9);
}

TEST(TaxonomyTest, Cu90Computation)
{
    const auto s = surfaceFromLaw(
        "x/cu90/k", [](double cu, double core, double) {
            return 1e6 / (std::min(cu, 24.0) * core);
        });
    const auto c = classifySurface(s);
    // 90% of the CU-24 plateau is reached at ~24 CUs.
    EXPECT_GE(c.cu90, 20);
    EXPECT_LE(c.cu90, 24);
}

TEST(TaxonomyTest, ClassifyAllAndHistogram)
{
    std::vector<ScalingSurface> surfaces;
    surfaces.push_back(surfaceFromLaw(
        "x/a/k", [](double cu, double core, double) {
            return 1e6 / (cu * core);
        }));
    surfaces.push_back(surfaceFromLaw(
        "x/b/k",
        [](double, double, double mem) { return 1e6 / mem; }));
    surfaces.push_back(surfaceFromLaw(
        "x/c/k", [](double, double, double) { return 1.0; }));

    const auto classifications = classifyAll(surfaces);
    ASSERT_EQ(classifications.size(), 3u);
    const auto hist = classHistogram(classifications);
    EXPECT_EQ(hist[static_cast<size_t>(TaxonomyClass::CoreBound)], 1u);
    EXPECT_EQ(hist[static_cast<size_t>(TaxonomyClass::MemoryBound)],
              1u);
    EXPECT_EQ(hist[static_cast<size_t>(TaxonomyClass::LaunchBound)],
              1u);
    size_t total = 0;
    for (size_t n : hist)
        total += n;
    EXPECT_EQ(total, 3u);
}

TEST(TaxonomyTest, ClassNamesDistinct)
{
    std::set<std::string> names;
    for (const auto cls : allTaxonomyClasses())
        EXPECT_TRUE(names.insert(taxonomyClassName(cls)).second);
    EXPECT_EQ(names.size(), kNumTaxonomyClasses);
}

TEST(TaxonomyTest, InsensitiveRangeThresholdMatters)
{
    // 1.3x total range: LaunchBound under a loose threshold, not
    // under the default.
    const auto s = surfaceFromLaw(
        "x/weak/k", [](double, double core, double) {
            return 1.0 + 90.0 / core; // range ~1.3x
        });
    TaxonomyParams loose;
    loose.insensitive_range = 1.5;
    EXPECT_EQ(classifySurface(s, loose).cls,
              TaxonomyClass::LaunchBound);
    const auto c = classifySurface(s);
    EXPECT_NE(c.cls, TaxonomyClass::LaunchBound);
}

} // namespace
} // namespace scaling
} // namespace gpuscale
