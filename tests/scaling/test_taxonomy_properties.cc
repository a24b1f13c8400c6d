/**
 * @file
 * Property-based tests for classifier invariants.
 *
 * The decision tree in classifySurface() is specified in terms of
 * performance *ratios* along each axis, which implies three algebraic
 * invariants any refactor must preserve:
 *
 *  - runtime-scale invariance: multiplying every runtime by a
 *    positive constant (changing units, a faster host clock) cannot
 *    change any kernel's class;
 *  - row-permutation invariance: the CSV ingestion path must produce
 *    the same surfaces regardless of sample order, so externally
 *    measured data classifies identically however it was logged;
 *  - zero-noise identity: NoisyModel with sigma = 0 is the identity
 *    decorator — bitwise, so the noise study's sigma -> 0 limit is
 *    exactly the clean census.
 *
 * Each property is checked across the whole 267-kernel zoo, with a
 * deterministic Rng driving the scale factors and permutations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "base/random.hh"
#include "gpu/analytic_model.hh"
#include "harness/noise.hh"
#include "harness/sweep.hh"
#include "scaling/report.hh"
#include "scaling/taxonomy.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

/** Surfaces for the whole zoo on the fast grid, computed once. */
const std::vector<scaling::ScalingSurface> &
zooSurfaces()
{
    static const std::vector<scaling::ScalingSurface> surfaces = [] {
        const gpu::AnalyticModel model;
        return harness::sweepKernels(
            model, workloads::WorkloadRegistry::instance().allKernels(),
            gpu::ConfigGrid::testGrid());
    }();
    return surfaces;
}

TEST(TaxonomyPropertyTest, ClassInvariantUnderRuntimeScaling)
{
    Rng rng(2026);
    for (const auto &surface : zooSurfaces()) {
        const auto base_cls = scaling::classifySurface(surface);
        // Span nanosecond-vs-hour magnitudes on both sides of 1.
        for (const double scale :
             {1e-6, 0.1, 3.0, 1e6, rng.uniform(1e-3, 1e3)}) {
            std::vector<double> scaled = surface.runtimes();
            for (double &r : scaled)
                r *= scale;
            const auto cls = scaling::classifySurface(
                scaling::ScalingSurface(surface.kernelName(),
                                        surface.space(),
                                        std::move(scaled)));
            EXPECT_EQ(base_cls.cls, cls.cls)
                << surface.kernelName() << " at scale " << scale;
        }
    }
}

TEST(TaxonomyPropertyTest, CsvIngestionInvariantUnderRowPermutation)
{
    // Dump a handful of surfaces to CSV, shuffle the sample rows, and
    // re-ingest: the inferred grid and the classes must not move.
    Rng rng(7);
    const auto &surfaces = zooSurfaces();
    for (size_t s = 0; s < surfaces.size(); s += 53) {
        const auto &surface = surfaces[s];
        std::ostringstream os;
        scaling::writeSurfaceCsv(os, surface);

        std::istringstream is(os.str());
        std::string header, line;
        ASSERT_TRUE(std::getline(is, header));
        std::vector<std::string> rows;
        while (std::getline(is, line)) {
            if (!line.empty())
                rows.push_back(line);
        }
        // Fisher–Yates with the repo Rng (std::shuffle's dance is
        // implementation-defined; this keeps failures reproducible).
        for (size_t i = rows.size(); i > 1; --i) {
            const auto j = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(i) - 1));
            std::swap(rows[i - 1], rows[j]);
        }

        std::string shuffled = header + "\n";
        for (const auto &row : rows)
            shuffled += row + "\n";

        const auto parsed = scaling::readSurfacesCsv(shuffled);
        ASSERT_EQ(parsed.size(), 1u) << surface.kernelName();
        ASSERT_EQ(parsed[0].runtimes().size(),
                  surface.runtimes().size());
        const auto before = scaling::classifySurface(surface);
        const auto after = scaling::classifySurface(parsed[0]);
        EXPECT_EQ(before.cls, after.cls) << surface.kernelName();
    }
}

TEST(TaxonomyPropertyTest, ZeroNoiseReproducesCleanClassBitwise)
{
    const gpu::AnalyticModel inner;
    const harness::NoisyModel clean(inner, 0.0, 99);
    const auto space = gpu::ConfigGrid::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();

    for (size_t k = 0; k < kernels.size(); k += 29) {
        const auto *kernel = kernels[k];
        for (size_t i = 0; i < space.size(); ++i) {
            EXPECT_EQ(clean.estimate(*kernel, space.at(i)).time_s,
                      inner.estimate(*kernel, space.at(i)).time_s)
                << kernel->name << " config " << i;
        }
    }

    // End-to-end: sigma = 0 classes equal the clean classes for the
    // whole zoo (surfaces, not just single estimates).
    const auto clean_surfaces = harness::sweepKernels(
        clean, kernels, space);
    const auto &base_surfaces = zooSurfaces();
    ASSERT_EQ(clean_surfaces.size(), base_surfaces.size());
    for (size_t i = 0; i < clean_surfaces.size(); ++i) {
        EXPECT_EQ(
            scaling::classifySurface(clean_surfaces[i]).cls,
            scaling::classifySurface(base_surfaces[i]).cls)
            << clean_surfaces[i].kernelName();
    }
}

TEST(TaxonomyPropertyTest, NoiseAtTinySigmaRarelyMovesClasses)
{
    // Monotonicity in sigma at the small end: a sigma far below the
    // classifier's ratio thresholds must leave almost every kernel in
    // its clean class (the A4 experiment's premise).
    const gpu::AnalyticModel inner;
    const harness::NoisyModel tiny(inner, 1e-4, 5);
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const auto noisy_surfaces = harness::sweepKernels(
        tiny, kernels, gpu::ConfigGrid::testGrid());

    const auto &base_surfaces = zooSurfaces();
    size_t moved = 0;
    for (size_t i = 0; i < noisy_surfaces.size(); ++i) {
        if (scaling::classifySurface(noisy_surfaces[i]).cls !=
            scaling::classifySurface(base_surfaces[i]).cls)
            ++moved;
    }
    // Border-sitting kernels may legitimately flip; mass movement
    // means the classifier lost its noise margin.
    EXPECT_LE(moved, kernels.size() / 20)
        << moved << " of " << kernels.size()
        << " kernels changed class under sigma=1e-4";
}

} // namespace
} // namespace gpuscale
