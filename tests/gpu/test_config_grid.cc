/**
 * @file
 * Tests for the configuration grid.
 */

#include "gpu/config_grid.hh"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "base/logging.hh"

namespace gpuscale {
namespace gpu {
namespace {

/** An axes-only grid inheriting `base`. */
ConfigGrid
makeGrid(std::vector<int> cus, std::vector<double> cores,
         std::vector<double> mems, GpuConfig base = GpuConfig{})
{
    return ConfigGrid{std::move(cus), std::move(cores), std::move(mems),
                      base};
}

TEST(ConfigGridTest, PaperGridHas891Points)
{
    const ConfigGrid grid = ConfigGrid::paperGrid();
    EXPECT_EQ(grid.numCu(), 11u);
    EXPECT_EQ(grid.numCoreClk(), 9u);
    EXPECT_EQ(grid.numMemClk(), 9u);
    EXPECT_EQ(grid.size(), 891u);
}

TEST(ConfigGridTest, PaperGridMatchesAbstractRatios)
{
    const ConfigGrid grid = ConfigGrid::paperGrid();
    EXPECT_NEAR(static_cast<double>(grid.cu_values.back()) /
                    grid.cu_values.front(),
                11.0, 1e-12);
    EXPECT_NEAR(grid.core_clks_mhz.back() / grid.core_clks_mhz.front(),
                5.0, 1e-12);
    EXPECT_NEAR(grid.mem_clks_mhz.back() / grid.mem_clks_mhz.front(),
                8.3333, 1e-3);
}

TEST(ConfigGridTest, PaperGridFingerprintIsPinned)
{
    // Checkpoint journals are keyed by this string: a change here
    // orphans every journal already on disk.
    EXPECT_EQ(ConfigGrid::paperGrid().fingerprint(),
              "grid:cu=4,8,12,16,20,24,28,32,36,40,44,"
              "core=200,300,400,500,600,700,800,900,1000,"
              "mem=150,287.5,425,562.5,700,837.5,975,1112.5,1250,"
              "arch=4,16,64,10,256,16,65536,16384,8,131072,64,64,32,48,"
              "4,0.8,220,28,150,1,");
}

TEST(ConfigGridTest, FlattenUnflattenRoundTrip)
{
    const ConfigGrid grid = ConfigGrid::paperGrid();
    for (size_t flat = 0; flat < grid.size(); ++flat) {
        const auto idx = grid.unflatten(flat);
        EXPECT_EQ(grid.flatten(idx.cu, idx.core, idx.mem), flat);
    }
}

TEST(ConfigGridTest, AllConfigsDistinctAndValid)
{
    const ConfigGrid grid = ConfigGrid::paperGrid();
    EXPECT_NO_THROW(grid.validate());
    std::set<std::string> ids;
    for (size_t i = 0; i < grid.size(); ++i) {
        const auto cfg = grid.at(i);
        EXPECT_NO_THROW(cfg.validate());
        EXPECT_TRUE(ids.insert(cfg.id()).second) << cfg.id();
    }
    EXPECT_EQ(ids.size(), 891u);
}

TEST(ConfigGridTest, ExtremeConfigs)
{
    const ConfigGrid grid = ConfigGrid::paperGrid();
    EXPECT_EQ(grid.minConfig().num_cus, 4);
    EXPECT_EQ(grid.maxConfig().num_cus, 44);
    EXPECT_DOUBLE_EQ(grid.minConfig().core_clk_mhz, 200.0);
    EXPECT_DOUBLE_EQ(grid.maxConfig().mem_clk_mhz, 1250.0);
}

TEST(ConfigGridTest, BaseTemplatePropagates)
{
    GpuConfig base;
    base.l2_slices = 16;
    const ConfigGrid grid = makeGrid({4, 8}, {500}, {700}, base);
    EXPECT_EQ(grid.at(0, 0, 0).l2_slices, 16);
    EXPECT_EQ(grid.at(1, 0, 0).num_cus, 8);
}

TEST(ConfigGridTest, TestGridIsSmallCube)
{
    const ConfigGrid grid = ConfigGrid::testGrid();
    EXPECT_EQ(grid.size(), 27u);
    EXPECT_NO_THROW(grid.validate());
}

class ConfigGridErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(ConfigGridErrorTest, RejectsEmptyAxis)
{
    EXPECT_THROW(makeGrid({}, {500}, {700}).validate(), std::runtime_error);
}

TEST_F(ConfigGridErrorTest, RejectsNonIncreasingAxis)
{
    EXPECT_THROW(makeGrid({8, 4}, {500}, {700}).validate(),
                 std::runtime_error);
    EXPECT_THROW(makeGrid({4, 4}, {500}, {700}).validate(),
                 std::runtime_error);
}

TEST_F(ConfigGridErrorTest, RejectsInvalidExtremePoint)
{
    EXPECT_THROW(makeGrid({0, 4}, {500}, {700}).validate(),
                 std::runtime_error);
}

TEST_F(ConfigGridErrorTest, OutOfRangeIndexPanics)
{
    const ConfigGrid grid = ConfigGrid::testGrid();
    EXPECT_THROW(grid.at(99), std::runtime_error);
    EXPECT_THROW(grid.flatten(3, 0, 0), std::runtime_error);
}

} // namespace
} // namespace gpu
} // namespace gpuscale
