/**
 * @file
 * Tests for measurement-noise injection.
 */

#include "harness/noise.hh"

#include <gtest/gtest.h>

#include <cmath>

#include "gpu/analytic_model.hh"
#include "gpu/gpu_config.hh"
#include "harness/sweep.hh"
#include "scaling/taxonomy.hh"
#include "workloads/archetypes.hh"

namespace gpuscale {
namespace harness {
namespace {

TEST(NoiseTest, ZeroSigmaIsIdentity)
{
    const gpu::AnalyticModel inner;
    const NoisyModel noisy(inner, 0.0);
    const auto kernel = workloads::streaming(
        "t/n/k", {.wgs = 1024, .wi_per_wg = 256});
    const auto cfg = gpu::makeMaxConfig();
    EXPECT_DOUBLE_EQ(noisy.estimate(kernel, cfg).time_s,
                     inner.estimate(kernel, cfg).time_s);
}

TEST(NoiseTest, DeterministicPerKernelConfigSeed)
{
    const gpu::AnalyticModel inner;
    const NoisyModel a(inner, 0.05, 7);
    const NoisyModel b(inner, 0.05, 7);
    const auto kernel = workloads::streaming(
        "t/n/k", {.wgs = 1024, .wi_per_wg = 256});
    const auto cfg = gpu::makeMaxConfig();
    EXPECT_DOUBLE_EQ(a.estimate(kernel, cfg).time_s,
                     b.estimate(kernel, cfg).time_s);
}

TEST(NoiseTest, DifferentSeedsDiffer)
{
    const gpu::AnalyticModel inner;
    const NoisyModel a(inner, 0.05, 1);
    const NoisyModel b(inner, 0.05, 2);
    const auto kernel = workloads::streaming(
        "t/n/k", {.wgs = 1024, .wi_per_wg = 256});
    const auto cfg = gpu::makeMaxConfig();
    EXPECT_NE(a.estimate(kernel, cfg).time_s,
              b.estimate(kernel, cfg).time_s);
}

TEST(NoiseTest, PerturbationMatchesSigma)
{
    const gpu::AnalyticModel inner;
    const NoisyModel noisy(inner, 0.05, 3);
    const auto cfg = gpu::makeMaxConfig();

    // Sample many kernels; log-ratio spread should be ~sigma.
    double sum_sq = 0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        auto kernel = workloads::streaming(
            "t/n/k" + std::to_string(i),
            {.wgs = 1024, .wi_per_wg = 256});
        const double ratio = noisy.estimate(kernel, cfg).time_s /
                             inner.estimate(kernel, cfg).time_s;
        sum_sq += std::log(ratio) * std::log(ratio);
    }
    EXPECT_NEAR(std::sqrt(sum_sq / n), 0.05, 0.01);
}

TEST(NoiseTest, NameReflectsDecoration)
{
    const gpu::AnalyticModel inner;
    const NoisyModel noisy(inner, 0.05);
    EXPECT_EQ(noisy.name(), "analytic+noise(0.050)");
}

TEST(NoiseTest, MildNoisePreservesClassification)
{
    // The taxonomy of a strongly characterized kernel should survive
    // realistic measurement noise.
    const gpu::AnalyticModel inner;
    const NoisyModel noisy(inner, 0.02, 11);
    const auto kernel = workloads::streaming(
        "t/n/stable", {.wgs = 16384, .wi_per_wg = 256});
    const auto space = gpu::ConfigGrid::paperGrid();

    const auto clean = scaling::classifySurface(
        sweepKernel(inner, kernel, space));
    const auto perturbed = scaling::classifySurface(
        sweepKernel(noisy, kernel, space));
    EXPECT_EQ(clean.cls, perturbed.cls);
}

} // namespace
} // namespace harness
} // namespace gpuscale
