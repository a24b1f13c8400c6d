/**
 * @file
 * End-to-end integration tests: the full paper census (267 kernels x
 * 891 configurations) through the analytic model, plus cross-model
 * agreement and clustering cross-checks.  These assert the properties
 * EXPERIMENTS.md reports.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "gpu/analytic_model.hh"
#include "gpu/timing/event_sim.hh"
#include "harness/experiment.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/run_manifest.hh"
#include "obs/trace.hh"
#include "scaling/cluster.hh"
#include "scaling/report.hh"
#include "scaling/suite_analysis.hh"
#include "base/csv.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

const harness::CensusResult &
fullCensus()
{
    static const harness::CensusResult census =
        harness::runCensus(gpu::AnalyticModel{});
    return census;
}

TEST(EndToEndTest, CensusShape)
{
    const auto &census = fullCensus();
    EXPECT_EQ(census.space.size(), 891u);
    EXPECT_EQ(census.surfaces.size(), 267u);
    EXPECT_EQ(census.classifications.size(), 267u);
}

TEST(EndToEndTest, EveryMechanisticClassIsPopulated)
{
    // Irregular is the classifier's escape hatch: the deterministic
    // model produces clean curves, so it may legitimately be empty
    // here (it is exercised by synthetic curves in the unit tests).
    const auto hist =
        scaling::classHistogram(fullCensus().classifications);
    for (const auto cls : scaling::allTaxonomyClasses()) {
        if (cls == scaling::TaxonomyClass::Irregular)
            continue;
        EXPECT_GT(hist[static_cast<size_t>(cls)], 0u)
            << scaling::taxonomyClassName(cls);
    }
}

TEST(EndToEndTest, IntuitiveScalersDominate)
{
    // The paper: "many kernels scale in intuitive ways ... We also
    // find a number of kernels that scale in non-obvious ways".
    const auto hist =
        scaling::classHistogram(fullCensus().classifications);
    const size_t intuitive =
        hist[static_cast<size_t>(scaling::TaxonomyClass::CoreBound)] +
        hist[static_cast<size_t>(
            scaling::TaxonomyClass::MemoryBound)] +
        hist[static_cast<size_t>(scaling::TaxonomyClass::Balanced)];
    const size_t non_obvious = 267 - intuitive;
    EXPECT_GT(intuitive, 267u / 2);
    EXPECT_GT(non_obvious, 267u / 10);
}

TEST(EndToEndTest, SomeKernelsLosePerformanceWithMoreCus)
{
    size_t adverse = 0;
    for (const auto &c : fullCensus().classifications) {
        if (c.cu.total_gain < 0.85)
            ++adverse;
    }
    EXPECT_GE(adverse, 5u);
}

TEST(EndToEndTest, SomeKernelsPlateauInBothClockDomains)
{
    size_t plateau = 0;
    for (const auto &c : fullCensus().classifications) {
        if (c.freq.shape == scaling::CurveShape::Plateau &&
            (c.mem.shape == scaling::CurveShape::Plateau ||
             c.mem.shape == scaling::CurveShape::Flat)) {
            ++plateau;
        }
    }
    EXPECT_GE(plateau, 5u);
}

TEST(EndToEndTest, SuitesDoNotScaleToModernGpuSizes)
{
    const auto &census = fullCensus();
    const auto reports =
        scaling::analyzeSuites(census.classifications, 44);
    ASSERT_EQ(reports.size(), 7u);

    // Every suite leaves some of the machine unused, and at least two
    // suites have a majority of kernels saturating below 44 CUs.
    size_t heavily_saturating = 0;
    for (const auto &r : reports) {
        EXPECT_GT(r.kernels, 0u);
        if (r.frac_saturating > 0.5)
            ++heavily_saturating;
    }
    EXPECT_GE(heavily_saturating, 2u);
}

TEST(EndToEndTest, ClusteringAgreesWithTaxonomy)
{
    const auto &census = fullCensus();
    std::vector<std::vector<double>> features;
    features.reserve(census.surfaces.size());
    for (const auto &surface : census.surfaces)
        features.push_back(scaling::scalingFeatureVector(surface));

    const auto result = scaling::kmeans(
        features, static_cast<int>(scaling::kNumTaxonomyClasses), 3);
    const double purity =
        scaling::clusterPurity(result.assignment,
                               census.classifications);
    // Unsupervised structure should align well with the taxonomy.
    EXPECT_GT(purity, 0.55);
}

TEST(EndToEndTest, EventModelAgreesOnRepresentatives)
{
    const auto &census = fullCensus();
    const gpu::timing::EventModel event;
    const gpu::AnalyticModel analytic;
    const auto &registry = workloads::WorkloadRegistry::instance();
    const gpu::GpuConfig cfg = census.space.maxConfig();

    int compared = 0;
    for (const auto *rep :
         harness::representativesPerClass(census)) {
        const auto *kernel = registry.findKernel(rep->kernel);
        ASSERT_NE(kernel, nullptr) << rep->kernel;
        // Skip very launch-heavy kernels to keep runtime bounded; the
        // models share the launch-overhead term anyway.
        if (kernel->launches > 200 || kernel->totalWaves(cfg) > 100000)
            continue;
        const double te = event.estimate(*kernel, cfg).time_s;
        const double ta = analytic.estimate(*kernel, cfg).time_s;
        EXPECT_NEAR(te / ta, 1.0, 0.45) << rep->kernel;
        ++compared;
    }
    EXPECT_GE(compared, 2);
}

TEST(EndToEndTest, ReportsRenderForFullCensus)
{
    const auto &census = fullCensus();
    EXPECT_NO_THROW({
        const auto t =
            scaling::classHistogramTable(census.classifications);
        EXPECT_EQ(t.numRows(), scaling::kNumTaxonomyClasses + 1);
    });
    EXPECT_NO_THROW(
        scaling::nonObviousTable(census.classifications).render());
    EXPECT_NO_THROW(
        scaling::suiteBreakdownTable(
            scaling::analyzeSuites(census.classifications, 44), 44)
            .render());
}

TEST(EndToEndTest, CsvDumpsAreParseable)
{
    const auto &census = fullCensus();
    std::ostringstream os;
    scaling::writeClassificationsCsv(os, census.classifications);
    const auto doc = parseCsv(os.str());
    EXPECT_EQ(doc.rows.size(), 267u);
    EXPECT_EQ(doc.columnIndex("class"), 1u);

    std::ostringstream so;
    scaling::writeSurfaceCsv(so, census.surfaces.front());
    const auto sdoc = parseCsv(so.str());
    EXPECT_EQ(sdoc.rows.size(), 891u);
}


TEST(EndToEndTest, MemoryBoundIsTheLargestClass)
{
    // GPGPU suites of the era were predominantly bandwidth limited;
    // the zoo reproduces that skew.
    const auto hist =
        scaling::classHistogram(fullCensus().classifications);
    const size_t mem = hist[static_cast<size_t>(
        scaling::TaxonomyClass::MemoryBound)];
    for (const auto cls : scaling::allTaxonomyClasses()) {
        if (cls != scaling::TaxonomyClass::MemoryBound) {
            EXPECT_GE(mem, hist[static_cast<size_t>(cls)]);
        }
    }
}

TEST(EndToEndTest, GraphSuitesAreTheWorstScalers)
{
    const auto reports =
        scaling::analyzeSuites(fullCensus().classifications, 44);
    double pannotia = -1, shoc = -1, polybench = -1;
    for (const auto &r : reports) {
        if (r.suite == "pannotia")
            pannotia = r.frac_non_scaling;
        if (r.suite == "shoc")
            shoc = r.frac_non_scaling;
        if (r.suite == "polybench")
            polybench = r.frac_non_scaling;
    }
    ASSERT_GE(pannotia, 0.0);
    EXPECT_GT(pannotia, shoc);
    EXPECT_GT(pannotia, polybench);
}

TEST(EndToEndTest, AdverseKernelsHaveMechanisms)
{
    // Every CU-adverse kernel in the zoo carries one of the two
    // modelled mechanisms: contended atomics or an L2-resident
    // working set that scales with active workgroups.
    const auto &registry = workloads::WorkloadRegistry::instance();
    for (const auto &c : fullCensus().classifications) {
        if (c.cls != scaling::TaxonomyClass::CuAdverse)
            continue;
        const auto *k = registry.findKernel(c.kernel);
        ASSERT_NE(k, nullptr) << c.kernel;
        const bool atomic_mechanism =
            k->atomic_ops > 0 && k->atomic_contention > 0;
        const bool cache_mechanism =
            k->l2_reuse >= 0.5 && k->footprint_bytes_per_wg > 0;
        EXPECT_TRUE(atomic_mechanism || cache_mechanism) << c.kernel;
    }
}

TEST(EndToEndTest, StarvedKernelsHaveSmallLaunches)
{
    const auto &registry = workloads::WorkloadRegistry::instance();
    const auto capacity_cfg = fullCensus().space.maxConfig();
    for (const auto &c : fullCensus().classifications) {
        if (c.cls != scaling::TaxonomyClass::ParallelismStarved)
            continue;
        const auto *k = registry.findKernel(c.kernel);
        ASSERT_NE(k, nullptr) << c.kernel;
        // A starved kernel cannot fill the biggest machine.
        const auto occ = gpu::computeOccupancy(*k, capacity_cfg);
        EXPECT_EQ(occ.limiter, gpu::OccupancyLimiter::LaunchSize)
            << c.kernel;
    }
}

TEST(EndToEndTest, SweepEmitsRequiredTelemetry)
{
    // The acceptance telemetry for a census-style run: trace spans
    // per swept kernel and per worker thread, and the sweep metrics.
    const std::string trace_path =
        ::testing::TempDir() + "/e2e_sweep.trace.json";
    obs::TraceSession::start(trace_path);

    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::testGrid();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const auto surfaces = harness::sweepKernels(model, kernels, space);
    ASSERT_EQ(surfaces.size(), kernels.size());
    ASSERT_GT(obs::TraceSession::stop(), 0u);

    std::ifstream is(trace_path);
    ASSERT_TRUE(is);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const obs::JsonValue doc = obs::parseJson(buffer.str());

    size_t kernel_spans = 0, worker_spans = 0;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").str != "X")
            continue;
        const std::string &name = ev.at("name").str;
        if (name.rfind("sweep/", 0) == 0)
            ++kernel_spans;
        if (name.rfind("parallel_for.", 0) == 0)
            ++worker_spans;
    }
    // One span per swept kernel, and at least one per worker thread
    // (single-core hosts run the serial path, also a span).
    EXPECT_GE(kernel_spans, kernels.size());
    EXPECT_GE(worker_spans, 1u);

    // The registry carries the acceptance metrics with live values.
    auto &reg = obs::Registry::instance();
    EXPECT_GE(reg.counter("sweep.estimates.count").value(),
              kernels.size() * space.size());
    EXPECT_GE(reg.histogram("sweep.estimate.latency")
                  .percentile(50),
              0.0);
    EXPECT_GT(reg.histogram("sweep.estimate.latency").count(),
              0u);
    EXPECT_GE(reg.gauge("parallel.worker.imbalance").value(), 1.0);

    const obs::JsonValue snap = obs::parseJson(reg.snapshotJson());
    EXPECT_NE(snap.at("counters").find("sweep.estimates.count"),
              nullptr);
    EXPECT_NE(snap.at("histograms").find("sweep.estimate.latency"),
              nullptr);
    EXPECT_NE(snap.at("gauges").find("parallel.worker.imbalance"),
              nullptr);
}

TEST(EndToEndTest, CensusProducesValidManifest)
{
    const gpu::AnalyticModel model;
    const obs::ManifestTimer timer;
    const auto census = harness::runCensus(
        model, gpu::ConfigGrid::testGrid());

    obs::RunManifest manifest =
        harness::censusManifest(census, model);
    manifest.argv = {"census"};
    timer.finalize(manifest);

    const std::string path =
        ::testing::TempDir() + "/e2e_census.manifest.json";
    obs::writeManifest(manifest, path);

    std::ifstream is(path);
    ASSERT_TRUE(is);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const obs::JsonValue v = obs::parseJson(buffer.str());

    EXPECT_EQ(v.at("tool").str, "gpuscale");
    EXPECT_EQ(v.at("command").str, "census");
    EXPECT_EQ(v.at("model").str, "analytic");
    EXPECT_DOUBLE_EQ(v.at("workload").at("num_kernels").number, 267.0);
    EXPECT_DOUBLE_EQ(v.at("config_space").at("num_configs").number,
                     27.0);
    EXPECT_EQ(v.at("config_space").at("cu_values").array.size(), 3u);
    EXPECT_GT(v.at("wall_time_s").number, 0.0);
    EXPECT_FALSE(v.at("started_at").str.empty());
    // The embedded metrics snapshot reflects the sweep that ran.
    EXPECT_GE(v.at("metrics")
                  .at("counters")
                  .at("sweep.estimates.count")
                  .number,
              267.0 * 27.0);
}

} // namespace
} // namespace gpuscale
