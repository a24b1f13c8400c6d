/**
 * @file
 * Differential proof for the batched census engine.
 *
 * The batched AnalyticModel::evaluateGrid() hoists grid-invariant
 * work out of the per-configuration loop; the scalar estimate() path
 * is the oracle.  These tests drive both over every zoo kernel and
 * every paper-grid configuration (267 x 891 points) and require
 * bitwise-identical runtimes — not approximately equal, identical —
 * plus identical taxonomy classes end-to-end.  Any hoisting mistake
 * that reorders floating-point arithmetic fails here.
 */

#include <gtest/gtest.h>

#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "harness/noise.hh"
#include "scaling/surface.hh"
#include "scaling/taxonomy.hh"
#include "workloads/archetypes.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

/**
 * A model that inherits the scalar-walk evaluateGrid() default, so
 * the PerfModel base implementation itself is under test too.
 */
class ScalarOnlyModel : public gpu::PerfModel
{
  public:
    gpu::KernelPerf
    estimate(const gpu::KernelDesc &kernel,
             const gpu::GpuConfig &cfg) const override
    {
        return inner_.estimate(kernel, cfg);
    }

    std::string name() const override { return "scalar-only"; }

  private:
    gpu::AnalyticModel inner_;
};

TEST(GridDifferentialTest, BatchedMatchesScalarBitwiseAllKernels)
{
    const gpu::AnalyticModel model;
    const auto grid = gpu::ConfigGrid::paperGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    ASSERT_EQ(kernels.size(), 267u);
    ASSERT_EQ(grid.size(), 891u);

    size_t points_checked = 0;
    for (const auto *kernel : kernels) {
        const auto batched = model.evaluateGrid(*kernel, grid);
        ASSERT_EQ(batched.size(), grid.size()) << kernel->name;
        for (size_t i = 0; i < grid.size(); ++i) {
            const auto idx = grid.unflatten(i);
            const gpu::KernelPerf scalar =
                model.estimate(*kernel, grid.at(i));
            // EXPECT_EQ on doubles is exact bit-for-bit comparison
            // (modulo -0.0 == 0.0, which never arises for runtimes).
            ASSERT_EQ(batched[i].time_s, scalar.time_s)
                << kernel->name << " at flat=" << i << " cu="
                << idx.cu << " core=" << idx.core << " mem=" << idx.mem;
            ASSERT_EQ(batched[i].kernel_time_s, scalar.kernel_time_s)
                << kernel->name << " at flat=" << i;
            ASSERT_EQ(batched[i].bound, scalar.bound)
                << kernel->name << " at flat=" << i;
            ++points_checked;
        }
    }
    EXPECT_EQ(points_checked, 267u * 891u);
}

TEST(GridDifferentialTest, PerPointFieldsMatchOnSpotKernels)
{
    // The runtime check above covers every point; the full KernelPerf
    // surface (per-resource terms, occupancy, rates) is spot-checked
    // on a few structurally distinct kernels to keep runtime sane.
    const gpu::AnalyticModel model;
    const auto grid = gpu::ConfigGrid::paperGrid();
    const auto &registry = workloads::WorkloadRegistry::instance();

    for (const char *name :
         {"rodinia/hotspot/calculate_temp", "shoc/reduction/reduce_stage",
          "parboil/sgemm/sgemm_nt"}) {
        const auto *kernel = registry.findKernel(name);
        ASSERT_NE(kernel, nullptr) << name;
        const auto batched = model.evaluateGrid(*kernel, grid);
        for (size_t i = 0; i < grid.size(); ++i) {
            const gpu::KernelPerf s = model.estimate(*kernel, grid.at(i));
            const gpu::KernelPerf &b = batched[i];
            ASSERT_EQ(b.t_compute, s.t_compute) << name << " " << i;
            ASSERT_EQ(b.t_lds, s.t_lds) << name << " " << i;
            ASSERT_EQ(b.t_l1, s.t_l1) << name << " " << i;
            ASSERT_EQ(b.t_l2, s.t_l2) << name << " " << i;
            ASSERT_EQ(b.t_dram, s.t_dram) << name << " " << i;
            ASSERT_EQ(b.t_atomic, s.t_atomic) << name << " " << i;
            ASSERT_EQ(b.t_latency, s.t_latency) << name << " " << i;
            ASSERT_EQ(b.t_launch, s.t_launch) << name << " " << i;
            ASSERT_EQ(b.t_serial, s.t_serial) << name << " " << i;
            ASSERT_EQ(b.achieved_gflops, s.achieved_gflops)
                << name << " " << i;
            ASSERT_EQ(b.imbalance_factor, s.imbalance_factor)
                << name << " " << i;
            ASSERT_EQ(b.occupancy.active_waves, s.occupancy.active_waves)
                << name << " " << i;
        }
    }
}

TEST(GridDifferentialTest, TaxonomyClassesIdenticalEndToEnd)
{
    // Classify every kernel from scalar-built and batched-built
    // surfaces; the taxonomy must agree kernel-for-kernel.
    const gpu::AnalyticModel model;
    const auto grid = gpu::ConfigGrid::paperGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();

    for (const auto *kernel : kernels) {
        std::vector<double> scalar_rt(grid.size());
        for (size_t i = 0; i < grid.size(); ++i)
            scalar_rt[i] = model.estimate(*kernel, grid.at(i)).time_s;
        const auto batched = model.evaluateGrid(*kernel, grid);
        std::vector<double> batched_rt(batched.size());
        for (size_t i = 0; i < batched.size(); ++i)
            batched_rt[i] = batched[i].time_s;

        const auto cls_scalar = scaling::classifySurface(
            scaling::ScalingSurface(kernel->name, grid, scalar_rt));
        const auto cls_batched = scaling::classifySurface(
            scaling::ScalingSurface(kernel->name, grid, batched_rt));
        EXPECT_EQ(cls_scalar.cls, cls_batched.cls) << kernel->name;
    }
}

TEST(GridDifferentialTest, DefaultEvaluateGridIsTheScalarOracle)
{
    const ScalarOnlyModel scalar_only;
    const gpu::AnalyticModel analytic;
    const auto grid = gpu::ConfigGrid::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "rodinia/hotspot/calculate_temp");
    ASSERT_NE(kernel, nullptr);

    // The base-class default must itself match per-point estimates in
    // flatten order, and agree with the batched override bitwise.
    const auto defaults = scalar_only.evaluateGrid(*kernel, grid);
    const auto batched = analytic.evaluateGrid(*kernel, grid);
    ASSERT_EQ(defaults.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(defaults[i].time_s,
                  scalar_only.estimate(*kernel, grid.at(i)).time_s);
        EXPECT_EQ(defaults[i].time_s, batched[i].time_s);
    }
}

TEST(GridDifferentialTest, NoisyBatchedMatchesNoisyScalar)
{
    // The decorator's batched path must replay the exact per-point
    // perturbation of its scalar path.
    const gpu::AnalyticModel inner;
    const harness::NoisyModel noisy(inner, 0.05, 42);
    const auto grid = gpu::ConfigGrid::testGrid();
    const auto *kernel =
        workloads::WorkloadRegistry::instance().findKernel(
            "shoc/reduction/reduce_stage");
    ASSERT_NE(kernel, nullptr);

    const auto batched = noisy.evaluateGrid(*kernel, grid);
    ASSERT_EQ(batched.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(batched[i].time_s,
                  noisy.estimate(*kernel, grid.at(i)).time_s);
    }
}

TEST(GridDifferentialTest, RuntimesHotPathMatchesEvaluateGridAllKernels)
{
    // evaluateGridRuntimes() is what the sweep harness actually calls:
    // the flat vector must be bitwise identical to evaluateGrid()'s
    // time_s for every zoo kernel and every paper-grid point.
    const gpu::AnalyticModel model;
    const auto grid = gpu::ConfigGrid::paperGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();

    for (const auto *kernel : kernels) {
        const auto full = model.evaluateGrid(*kernel, grid);
        const auto runtimes = model.evaluateGridRuntimes(*kernel, grid);
        ASSERT_EQ(runtimes.size(), grid.size()) << kernel->name;
        for (size_t i = 0; i < grid.size(); ++i) {
            ASSERT_EQ(runtimes[i], full[i].time_s)
                << kernel->name << " at flat=" << i;
        }
    }
}

/** An axes-only grid inheriting the default base machine. */
gpu::ConfigGrid
customGrid(std::vector<int> cus, std::vector<double> cores,
           std::vector<double> mems)
{
    gpu::ConfigGrid grid;
    grid.cu_values = std::move(cus);
    grid.core_clks_mhz = std::move(cores);
    grid.mem_clks_mhz = std::move(mems);
    return grid;
}

/**
 * Drive the scalar oracle, evaluateGrid(), and evaluateGridRuntimes()
 * over one grid and require bitwise agreement at every point.
 */
void
expectBitwiseMatch(const gpu::PerfModel &model,
                   const gpu::KernelDesc &kernel,
                   const gpu::ConfigGrid &grid)
{
    const auto batched = model.evaluateGrid(kernel, grid);
    const auto runtimes = model.evaluateGridRuntimes(kernel, grid);
    ASSERT_EQ(batched.size(), grid.size()) << kernel.name;
    ASSERT_EQ(runtimes.size(), grid.size()) << kernel.name;
    for (size_t cu = 0; cu < grid.numCu(); ++cu) {
        for (size_t core = 0; core < grid.numCoreClk(); ++core) {
            for (size_t mem = 0; mem < grid.numMemClk(); ++mem) {
                const size_t i = grid.flatten(cu, core, mem);
                const gpu::KernelPerf scalar =
                    model.estimate(kernel, grid.at(cu, core, mem));
                ASSERT_EQ(batched[i].time_s, scalar.time_s)
                    << kernel.name << " cu=" << cu << " core=" << core
                    << " mem=" << mem;
                ASSERT_EQ(runtimes[i], scalar.time_s)
                    << kernel.name << " cu=" << cu << " core=" << core
                    << " mem=" << mem;
            }
        }
    }
}

TEST(GridDifferentialTest, DegenerateGridsMatchScalarBitwise)
{
    // The paper grid's axis lengths are comfortable; the hoisted SoA
    // walk must also survive the shapes that break loop bookkeeping:
    // a single-point grid, single-point axes in each dimension, and a
    // 1-CU axis (which routes through the serial-machine path used
    // for Amdahl folding).
    const gpu::AnalyticModel model;
    const gpu::KernelDesc kernel = workloads::streaming(
        "diff/degenerate/stream", {.wgs = 512, .wi_per_wg = 256});

    expectBitwiseMatch(model, kernel, customGrid({44}, {1000.0}, {1250.0}));
    expectBitwiseMatch(model, kernel,
                       customGrid({1}, {300.0, 711.0, 1000.0}, {950.0}));
    expectBitwiseMatch(
        model, kernel,
        customGrid({8}, {455.0}, {150.0, 475.0, 925.0, 1375.0}));
    expectBitwiseMatch(model, kernel,
                       customGrid({1, 4}, {400.0, 800.0}, {500.0}));
}

TEST(GridDifferentialTest, IrregularAxisLengthsMatchScalarBitwise)
{
    // Axis lengths that do not divide the SIMD width (13 core clocks,
    // 7 memory clocks, 5 CU counts) force the vectorized stage-3 loop
    // through its scalar epilogue; kernels with atomics and a serial
    // fraction exercise every branch of the batched kernel.
    const gpu::AnalyticModel model;
    std::vector<double> cores, mems;
    for (int i = 0; i < 13; ++i)
        cores.push_back(307.0 + 53.0 * i);
    for (int i = 0; i < 7; ++i)
        mems.push_back(211.0 + 171.0 * i);
    const gpu::ConfigGrid grid =
        customGrid({1, 3, 7, 13, 44}, cores, mems);

    const gpu::KernelDesc stream = workloads::streaming(
        "diff/irregular/stream", {.wgs = 1024, .wi_per_wg = 256});
    const gpu::KernelDesc contended = workloads::reduction(
        "diff/irregular/reduce", {.wgs = 768, .wi_per_wg = 128}, 0.8);
    const gpu::KernelDesc compute = workloads::denseCompute(
        "diff/irregular/dense", {.wgs = 2048, .wi_per_wg = 64});

    ASSERT_GT(contended.atomic_ops, 0.0);
    ASSERT_GT(contended.serial_fraction, 0.0);
    expectBitwiseMatch(model, stream, grid);
    expectBitwiseMatch(model, contended, grid);
    expectBitwiseMatch(model, compute, grid);
}

TEST(GridDifferentialTest, NoisyRuntimesMatchNoisyScalarOnIrregularGrid)
{
    // The decorator's runtimes hot path must replay the exact
    // per-point lognormal factor on awkward grid shapes too.
    const gpu::AnalyticModel inner;
    const harness::NoisyModel noisy(inner, 0.07, 9);
    const gpu::ConfigGrid grid = customGrid(
        {1, 11, 44}, {333.0, 666.0, 999.0}, {200.0, 650.0, 1100.0,
        1400.0});
    const gpu::KernelDesc kernel = workloads::reduction(
        "diff/noisy/reduce", {.wgs = 256, .wi_per_wg = 256}, 0.5);

    expectBitwiseMatch(noisy, kernel, grid);
}

TEST(GridDifferentialTest, FlatIndexMatchesAxisIndices)
{
    // Surfaces index runtimes by flat position and evaluateGrid walks
    // the axes, so at(flat) must be the point the walk visits there.
    const auto grid = gpu::ConfigGrid::paperGrid();
    for (size_t cu = 0; cu < grid.numCu(); ++cu) {
        for (size_t core = 0; core < grid.numCoreClk(); ++core) {
            for (size_t mem = 0; mem < grid.numMemClk(); ++mem) {
                const size_t flat = grid.flatten(cu, core, mem);
                EXPECT_EQ(grid.at(flat).id(), grid.at(cu, core, mem).id());
                const auto idx = grid.unflatten(flat);
                EXPECT_EQ(idx.cu, cu);
                EXPECT_EQ(idx.core, core);
                EXPECT_EQ(idx.mem, mem);
            }
        }
    }
}

} // namespace
} // namespace gpuscale
