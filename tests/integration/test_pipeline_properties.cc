/**
 * @file
 * Property tests over the whole pipeline: for arbitrary generated
 * kernels, sweep -> surface -> shapes -> taxonomy must be total,
 * deterministic, and produce finite, well-formed verdicts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gpu/analytic_model.hh"
#include "harness/noise.hh"
#include "harness/sweep.hh"
#include "scaling/cluster.hh"
#include "scaling/predictor.hh"
#include "scaling/taxonomy.hh"
#include "workloads/generator.hh"

namespace gpuscale {
namespace {

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t>
{
  protected:
    const gpu::ConfigGrid space_ = gpu::ConfigGrid::paperGrid();
    const gpu::AnalyticModel model_;
};

TEST_P(PipelinePropertyTest, ClassifierIsTotalAndFinite)
{
    workloads::KernelGenerator gen(GetParam());
    for (int i = 0; i < 12; ++i) {
        const auto kernel = gen.next();
        const auto surface =
            harness::sweepKernel(model_, kernel, space_);
        const auto c = scaling::classifySurface(surface);

        // A class is always assigned and names render.
        EXPECT_FALSE(scaling::taxonomyClassName(c.cls).empty());

        for (const auto *verdict : {&c.freq, &c.mem, &c.cu}) {
            EXPECT_TRUE(std::isfinite(verdict->total_gain))
                << kernel.name;
            EXPECT_GT(verdict->total_gain, 0.0) << kernel.name;
            EXPECT_GE(verdict->monotone_fraction, 0.0) << kernel.name;
            EXPECT_LE(verdict->monotone_fraction, 1.0) << kernel.name;
            EXPECT_GE(verdict->linearity_r2, 0.0) << kernel.name;
            EXPECT_LE(verdict->linearity_r2, 1.0 + 1e-12)
                << kernel.name;
        }
        EXPECT_GE(c.cu90, space_.cu_values.front()) << kernel.name;
        EXPECT_LE(c.cu90, space_.cu_values.back()) << kernel.name;
        EXPECT_GE(c.perf_range, 1.0 - 1e-12) << kernel.name;
    }
}

TEST_P(PipelinePropertyTest, PipelineIsDeterministic)
{
    workloads::KernelGenerator gen(GetParam() ^ 0x1234);
    const auto kernel = gen.next();
    const auto s1 = harness::sweepKernel(model_, kernel, space_);
    const auto s2 = harness::sweepKernel(model_, kernel, space_);
    EXPECT_EQ(s1.runtimes(), s2.runtimes());
    EXPECT_EQ(scaling::classifySurface(s1).cls,
              scaling::classifySurface(s2).cls);
}

TEST_P(PipelinePropertyTest, FeatureVectorsAreWellFormed)
{
    workloads::KernelGenerator gen(GetParam() ^ 0x9999);
    for (int i = 0; i < 6; ++i) {
        const auto surface =
            harness::sweepKernel(model_, gen.next(), space_);
        const auto features = scaling::scalingFeatureVector(surface);
        ASSERT_EQ(features.size(),
                  space_.numCu() + space_.numCoreClk() +
                      space_.numMemClk());
        for (double f : features) {
            EXPECT_TRUE(std::isfinite(f));
            EXPECT_GT(f, 0.0);
        }
        // Each segment is normalized to its first point.
        EXPECT_DOUBLE_EQ(features[0], 1.0);
        EXPECT_DOUBLE_EQ(features[space_.numCu()], 1.0);
        EXPECT_DOUBLE_EQ(
            features[space_.numCu() + space_.numCoreClk()], 1.0);
    }
}

TEST_P(PipelinePropertyTest, NoisyPipelineStaysTotal)
{
    const harness::NoisyModel noisy(model_, 0.10, GetParam());
    workloads::KernelGenerator gen(GetParam() ^ 0x777);
    for (int i = 0; i < 6; ++i) {
        const auto surface =
            harness::sweepKernel(noisy, gen.next(), space_);
        EXPECT_NO_THROW({
            const auto c = scaling::classifySurface(surface);
            (void)scaling::taxonomyClassName(c.cls);
        });
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Range<uint64_t>(100, 106));

} // namespace
} // namespace gpuscale
