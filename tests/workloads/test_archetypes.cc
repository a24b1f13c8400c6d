/**
 * @file
 * Regime tests: each archetype must land in the scaling regime its
 * name promises on the studied grid.  These pin down the zoo's
 * behavioural coverage — if a model change silently drains a taxonomy
 * class, these tests catch it before the census does.
 */

#include "workloads/archetypes.hh"

#include <gtest/gtest.h>

#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "gpu/gpu_config.hh"
#include "harness/sweep.hh"
#include "scaling/taxonomy.hh"

namespace gpuscale {
namespace workloads {
namespace {

scaling::KernelClassification
classify(const gpu::KernelDesc &kernel)
{
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::paperGrid();
    return scaling::classifySurface(
        harness::sweepKernel(model, kernel, space));
}

TEST(ArchetypeTest, DenseComputeIsCoreBound)
{
    const auto c = classify(denseCompute(
        "a/dense/k", {.wgs = 8192, .wi_per_wg = 256}));
    EXPECT_EQ(c.cls, scaling::TaxonomyClass::CoreBound)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_GT(c.freq.total_gain, 3.5);
}

TEST(ArchetypeTest, StreamingIsMemoryBound)
{
    const auto c = classify(streaming(
        "a/stream/k", {.wgs = 16384, .wi_per_wg = 256}));
    EXPECT_EQ(c.cls, scaling::TaxonomyClass::MemoryBound)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_GT(c.mem.total_gain, 4.0);
}

TEST(ArchetypeTest, TiledLdsIsCoreClockDriven)
{
    const auto c = classify(tiledLds(
        "a/lds/k", {.wgs = 4096, .wi_per_wg = 256}));
    EXPECT_TRUE(c.cls == scaling::TaxonomyClass::CoreBound ||
                c.cls == scaling::TaxonomyClass::Balanced)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_GT(c.freq.total_gain, 2.5);
}

TEST(ArchetypeTest, CacheThrashIsCuAdverse)
{
    const auto c = classify(cacheThrash(
        "a/thrash/k", {.wgs = 4096, .wi_per_wg = 256}, 18.0));
    EXPECT_EQ(c.cls, scaling::TaxonomyClass::CuAdverse)
        << scaling::taxonomyClassName(c.cls);
    // The curve peaks early and collapses: the end sits far below the
    // peak even though it can stay near the 4-CU starting point.
    EXPECT_LT(c.cu.total_gain, 1.0);
}

TEST(ArchetypeTest, PointerChaseIsLatencyLimited)
{
    const auto c = classify(pointerChase(
        "a/chase/k", {.wgs = 16, .wi_per_wg = 64}));
    // Latency-limited kernels respond weakly to either clock alone:
    // at 200 MHz the on-chip (core-clocked) latency dominates, at low
    // memory clocks the DRAM roofline binds, so the class can read as
    // latency-bound, memory-bound, or balanced — never core-bound,
    // and never with strong frequency scaling.
    EXPECT_TRUE(c.cls == scaling::TaxonomyClass::LatencyBound ||
                c.cls == scaling::TaxonomyClass::MemoryBound ||
                c.cls == scaling::TaxonomyClass::Balanced)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_LT(c.freq.total_gain, 3.0);
}

TEST(ArchetypeTest, SmallGridIsParallelismStarved)
{
    const auto c = classify(smallGridCompute(
        "a/small/k", {.wgs = 12, .wi_per_wg = 256}));
    EXPECT_EQ(c.cls, scaling::TaxonomyClass::ParallelismStarved)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_LE(c.cu90, 16);
}

TEST(ArchetypeTest, TinyIterativeIsLaunchBound)
{
    const auto c = classify(tinyIterative(
        "a/tiny/k", {.wgs = 2, .wi_per_wg = 64, .launches = 2000,
                     .intensity = 0.05}));
    EXPECT_EQ(c.cls, scaling::TaxonomyClass::LaunchBound)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_LT(c.perf_range, 1.25);
}

TEST(ArchetypeTest, ContendedReductionIsCuAdverse)
{
    const auto c = classify(reduction(
        "a/red/k", {.wgs = 4096, .wi_per_wg = 256}, 0.9));
    EXPECT_EQ(c.cls, scaling::TaxonomyClass::CuAdverse)
        << scaling::taxonomyClassName(c.cls);
}

TEST(ArchetypeTest, UncontendedReductionIsNotAdverse)
{
    const auto c = classify(reduction(
        "a/red0/k", {.wgs = 4096, .wi_per_wg = 256}, 0.0));
    EXPECT_NE(c.cls, scaling::TaxonomyClass::CuAdverse);
}

TEST(ArchetypeTest, GraphTraversalSaturatesBandwidth)
{
    const auto c = classify(graphTraversal(
        "a/graph/k", {.wgs = 512, .wi_per_wg = 256, .launches = 20}));
    EXPECT_TRUE(c.cls == scaling::TaxonomyClass::MemoryBound ||
                c.cls == scaling::TaxonomyClass::LatencyBound)
        << scaling::taxonomyClassName(c.cls);
}

TEST(ArchetypeTest, StencilRespondsToBothClockDomains)
{
    const auto c = classify(stencil(
        "a/sten/k", {.wgs = 4096, .wi_per_wg = 256}, 20.0));
    EXPECT_TRUE(c.cls == scaling::TaxonomyClass::Balanced ||
                c.cls == scaling::TaxonomyClass::MemoryBound ||
                c.cls == scaling::TaxonomyClass::CoreBound)
        << scaling::taxonomyClassName(c.cls);
    EXPECT_GT(c.perf_range, 3.0);
}

TEST(ArchetypeTest, IntensityScalesWork)
{
    const gpu::AnalyticModel model;
    const auto heavy = denseCompute(
        "a/h/k", {.wgs = 4096, .wi_per_wg = 256, .launches = 1,
                  .intensity = 2.0});
    const auto light = denseCompute(
        "a/l/k", {.wgs = 4096, .wi_per_wg = 256, .launches = 1,
                  .intensity = 1.0});
    const double th =
        model.estimate(heavy, gpu::makeMaxConfig()).time_s;
    const double tl =
        model.estimate(light, gpu::makeMaxConfig()).time_s;
    EXPECT_NEAR(th / tl, 2.0, 0.2);
}

} // namespace
} // namespace workloads
} // namespace gpuscale
