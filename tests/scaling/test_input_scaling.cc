/**
 * @file
 * Tests for the input-scaling analysis.
 */

#include "scaling/input_scaling.hh"

#include <gtest/gtest.h>

#include <stdexcept>

#include "base/logging.hh"
#include "gpu/analytic_model.hh"
#include "workloads/archetypes.hh"

namespace gpuscale {
namespace scaling {
namespace {

const gpu::ConfigGrid &
grid()
{
    static const gpu::ConfigGrid space = gpu::ConfigGrid::paperGrid();
    return space;
}

TEST(InputScalingTest, StarvedComputeKernelIsFixable)
{
    // 8 workgroups of heavy compute saturate at 8 CUs; at 64x the
    // launch fills the machine.
    const gpu::AnalyticModel model;
    const auto kernel = workloads::smallGridCompute(
        "is/starved/k", {.wgs = 8, .wi_per_wg = 256});
    const auto result = studyInputScaling(model, kernel, grid());

    ASSERT_EQ(result.points.size(), 4u);
    EXPECT_LE(result.points[0].cu90, 12);
    EXPECT_GT(result.points.back().cu90, result.points[0].cu90);
    EXPECT_EQ(result.verdict, InputVerdict::FixableByInput);
    EXPECT_EQ(result.points[0].workgroups, 8);
    EXPECT_EQ(result.points.back().workgroups, 8 * 64);
}

TEST(InputScalingTest, ContendedReductionIsAlgorithmLimited)
{
    // Atomic contention worsens with occupancy: bigger inputs do not
    // move the knee to the full machine.
    const gpu::AnalyticModel model;
    const auto kernel = workloads::reduction(
        "is/red/k", {.wgs = 1024, .wi_per_wg = 256}, 0.9);
    const auto result = studyInputScaling(model, kernel, grid());
    EXPECT_EQ(result.verdict, InputVerdict::AlgorithmLimited);
}

TEST(InputScalingTest, ComputeBoundKernelAlreadyScales)
{
    const gpu::AnalyticModel model;
    const auto kernel = workloads::denseCompute(
        "is/dense/k", {.wgs = 8192, .wi_per_wg = 256});
    const auto result = studyInputScaling(model, kernel, grid());
    // Already at the machine limit at 1x (cu90 quantizes to the grid
    // step below the full machine).
    EXPECT_GE(result.points[0].cu90, 40);
    EXPECT_EQ(result.verdict, InputVerdict::FixableByInput);
}

TEST(InputScalingTest, CustomMultipliers)
{
    const gpu::AnalyticModel model;
    const auto kernel = workloads::smallGridCompute(
        "is/c/k", {.wgs = 4, .wi_per_wg = 256});
    const auto result =
        studyInputScaling(model, kernel, grid(), {1, 2, 3});
    ASSERT_EQ(result.points.size(), 3u);
    EXPECT_EQ(result.points[1].workgroups, 8);
    EXPECT_EQ(result.points[2].workgroups, 12);
}

TEST(InputScalingTest, VerdictNamesDistinct)
{
    EXPECT_EQ(inputVerdictName(InputVerdict::FixableByInput),
              "fixable-by-input");
    EXPECT_EQ(inputVerdictName(InputVerdict::PartiallyFixable),
              "partially-fixable");
    EXPECT_EQ(inputVerdictName(InputVerdict::AlgorithmLimited),
              "algorithm-limited");
}

class InputScalingErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(InputScalingErrorTest, RejectsBadMultipliers)
{
    const gpu::AnalyticModel model;
    const auto kernel = workloads::denseCompute(
        "is/e/k", {.wgs = 64, .wi_per_wg = 256});
    EXPECT_THROW(studyInputScaling(model, kernel, grid(), {}),
                 std::runtime_error);
    EXPECT_THROW(studyInputScaling(model, kernel, grid(), {1, 1}),
                 std::runtime_error);
    EXPECT_THROW(studyInputScaling(model, kernel, grid(), {-1, 2}),
                 std::runtime_error);
}

} // namespace
} // namespace scaling
} // namespace gpuscale
