/**
 * @file
 * Tests for the report emitters, including the measured-surface CSV
 * round trip that backs the bring-your-own-data workflow.
 */

#include "scaling/report.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "base/logging.hh"
#include "gpu/analytic_model.hh"
#include "harness/sweep.hh"
#include "workloads/archetypes.hh"

namespace gpuscale {
namespace scaling {
namespace {

ScalingSurface
sampleSurface(const std::string &name = "t/r/k")
{
    const gpu::AnalyticModel model;
    auto kernel = workloads::streaming(
        "x", {.wgs = 1024, .wi_per_wg = 256});
    kernel.name = name;
    return harness::sweepKernel(model, kernel, gpu::ConfigGrid::testGrid());
}

TEST(ReportTest, ConfigSpaceTableContents)
{
    const auto table = configSpaceTable(gpu::ConfigGrid::paperGrid());
    const std::string out = table.render();
    EXPECT_NE(out.find("11.00x"), std::string::npos);
    EXPECT_NE(out.find("5.00x"), std::string::npos);
    EXPECT_NE(out.find("8.33x"), std::string::npos);
    EXPECT_NE(out.find("891"), std::string::npos);
}

TEST(ReportTest, HistogramTableSharesSumTo100)
{
    KernelClassification a;
    a.kernel = "s/p/a";
    a.cls = TaxonomyClass::CoreBound;
    KernelClassification b = a;
    b.kernel = "s/p/b";
    b.cls = TaxonomyClass::MemoryBound;

    const auto table = classHistogramTable({a, b});
    const std::string out = table.render();
    EXPECT_NE(out.find("50.0%"), std::string::npos);
    EXPECT_NE(out.find("total"), std::string::npos);
}

TEST(ReportTest, NonObviousTableFiltersClasses)
{
    KernelClassification intuitive;
    intuitive.kernel = "s/p/core";
    intuitive.cls = TaxonomyClass::CoreBound;
    KernelClassification adverse;
    adverse.kernel = "s/p/adverse";
    adverse.cls = TaxonomyClass::CuAdverse;

    const auto table = nonObviousTable({intuitive, adverse});
    const std::string out = table.render();
    EXPECT_EQ(out.find("s/p/core"), std::string::npos);
    EXPECT_NE(out.find("s/p/adverse"), std::string::npos);
}

TEST(ReportTest, SurfaceCsvRoundTrip)
{
    const ScalingSurface original = sampleSurface();
    std::ostringstream os;
    writeSurfaceCsv(os, original);

    const auto surfaces = readSurfacesCsv(os.str());
    ASSERT_EQ(surfaces.size(), 1u);
    const auto &restored = surfaces.front();
    EXPECT_EQ(restored.kernelName(), original.kernelName());
    ASSERT_EQ(restored.space().size(), original.space().size());
    for (size_t i = 0; i < original.runtimes().size(); ++i) {
        EXPECT_DOUBLE_EQ(restored.runtimes()[i],
                         original.runtimes()[i])
            << i;
    }
    EXPECT_EQ(restored.space().cu_values, original.space().cu_values);
}

TEST(ReportTest, MultiKernelCsvPreservesOrder)
{
    const ScalingSurface a = sampleSurface("t/r/a");
    const ScalingSurface b = sampleSurface("t/r/b");
    std::ostringstream os;
    writeSurfaceCsv(os, a);
    // Append b's rows without a second header.
    std::ostringstream os_b;
    writeSurfaceCsv(os_b, b);
    const std::string b_text = os_b.str();
    os << b_text.substr(b_text.find('\n') + 1);

    const auto surfaces = readSurfacesCsv(os.str());
    ASSERT_EQ(surfaces.size(), 2u);
    EXPECT_EQ(surfaces[0].kernelName(), "t/r/a");
    EXPECT_EQ(surfaces[1].kernelName(), "t/r/b");
}

TEST(ReportTest, ClassifyingRestoredSurfaceMatches)
{
    const ScalingSurface original = sampleSurface();
    std::ostringstream os;
    writeSurfaceCsv(os, original);
    const auto restored = readSurfacesCsv(os.str());
    EXPECT_EQ(classifySurface(restored.front()).cls,
              classifySurface(original).cls);
}

class ReportErrorTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(ReportErrorTest, IncompleteGridIsFatal)
{
    const ScalingSurface original = sampleSurface();
    std::ostringstream os;
    writeSurfaceCsv(os, original);
    // Drop the last sample row.
    std::string text = os.str();
    text.erase(text.rfind('\n', text.size() - 2) + 1);
    EXPECT_THROW(readSurfacesCsv(text), std::runtime_error);
}

TEST_F(ReportErrorTest, MissingColumnIsFatal)
{
    EXPECT_THROW(readSurfacesCsv("a,b\n1,2\n"), std::runtime_error);
}

TEST_F(ReportErrorTest, InvalidInferredGridIsFatal)
{
    // The inferred grid is validated before any surface is built: a
    // file with no samples has empty axes, and a zero-CU row puts an
    // impossible machine on the grid.
    const std::string header = "kernel,cus,core_mhz,mem_mhz,runtime_s\n";
    EXPECT_THROW(readSurfacesCsv(header), std::runtime_error);
    EXPECT_THROW(readSurfacesCsv(header + "k,0,1000,1250,0.001\n"),
                 std::runtime_error);
}

} // namespace
} // namespace scaling
} // namespace gpuscale
