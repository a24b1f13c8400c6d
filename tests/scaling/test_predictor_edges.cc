/**
 * @file
 * Edge-case tests for the template-based scaling predictor.
 *
 * test_predictor.cc covers the happy path on the shared census; these
 * exercise the degenerate inputs a bring-your-own-measurements user
 * can feed it: one probe, constant probes, single-point axes, and the
 * malformed-argument fatals.
 */

#include "scaling/predictor.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "base/logging.hh"
#include "gpu/analytic_model.hh"
#include "harness/experiment.hh"

namespace gpuscale {
namespace scaling {
namespace {

const harness::CensusResult &
census()
{
    static const harness::CensusResult result =
        harness::runCensus(gpu::AnalyticModel{});
    return result;
}

const ScalingPredictor &
predictor()
{
    static const ScalingPredictor p(census().surfaces,
                                    census().classifications);
    return p;
}

TEST(PredictorEdgeTest, SingleProbePredictsThroughThatPoint)
{
    // One measurement is enough to pick a template and scale it: the
    // prediction must pass (near-)exactly through the probe and stay
    // finite and positive everywhere else.
    const auto &surface = census().surfaces.front();
    const size_t idx = census().space.size() / 2;
    const std::vector<size_t> probes{idx};
    const std::vector<double> runtimes{surface.runtimes()[idx]};

    const auto predicted = predictor().predict(probes, runtimes);
    ASSERT_EQ(predicted.size(), census().space.size());
    EXPECT_NEAR(predicted[idx], runtimes[0], 1e-9 * runtimes[0]);
    for (const double p : predicted) {
        EXPECT_TRUE(std::isfinite(p));
        EXPECT_GT(p, 0.0);
    }
    // matchClass must return one of the learned classes, not garbage.
    const TaxonomyClass cls = predictor().matchClass(probes, runtimes);
    EXPECT_LT(static_cast<size_t>(cls), kNumTaxonomyClasses);
}

TEST(PredictorEdgeTest, IdenticalProbeRuntimesStayFinite)
{
    // A perfectly flat probe response (the LaunchBound signature)
    // must not divide by a zero dynamic range anywhere in the fit.
    const auto probes =
        ScalingPredictor::defaultProbes(census().space);
    const std::vector<double> flat(probes.size(), 2.5e-3);

    const auto predicted = predictor().predict(probes, flat);
    ASSERT_EQ(predicted.size(), census().space.size());
    for (const double p : predicted) {
        EXPECT_TRUE(std::isfinite(p));
        EXPECT_GT(p, 0.0);
    }
    const TaxonomyClass cls = predictor().matchClass(probes, flat);
    EXPECT_LT(static_cast<size_t>(cls), kNumTaxonomyClasses);
}

TEST(PredictorEdgeTest, SinglePointAxesGrid)
{
    // A 1x1x1 "grid" is the smallest legal space.  classifySurface
    // needs curves to walk, so the classifications are hand-built;
    // the predictor must still learn templates and predict the one
    // point exactly.
    const gpu::ConfigGrid space{{8}, {1000.0}, {1200.0}, gpu::GpuConfig{}};
    ASSERT_EQ(space.size(), 1u);

    std::vector<ScalingSurface> surfaces;
    surfaces.emplace_back("tiny/a", space, std::vector<double>{1.0e-3});
    surfaces.emplace_back("tiny/b", space, std::vector<double>{4.0e-3});
    std::vector<KernelClassification> classifications(2);
    classifications[0].kernel = "tiny/a";
    classifications[0].cls = TaxonomyClass::CoreBound;
    classifications[1].kernel = "tiny/b";
    classifications[1].cls = TaxonomyClass::MemoryBound;

    const ScalingPredictor tiny(surfaces, classifications);
    EXPECT_EQ(tiny.numTemplates(), 2u);

    const std::vector<size_t> probes{0};
    const std::vector<double> runtimes{7.0e-4};
    const auto predicted = tiny.predict(probes, runtimes);
    ASSERT_EQ(predicted.size(), 1u);
    EXPECT_NEAR(predicted[0], runtimes[0], 1e-12);

    const auto defaults = ScalingPredictor::defaultProbes(space);
    ASSERT_FALSE(defaults.empty());
    for (const size_t idx : defaults)
        EXPECT_EQ(idx, 0u);
}

TEST(PredictorEdgeTest, EvaluatePredictionOnIdenticalSurfacesIsZero)
{
    const auto &truth = census().surfaces.front().runtimes();
    const auto err = evaluatePrediction(truth, truth);
    EXPECT_EQ(err.mape, 0.0);
    EXPECT_EQ(err.median_ape, 0.0);
    EXPECT_EQ(err.p90_ape, 0.0);
}

class PredictorEdgeFatalTest : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowOnTerminate(true); }
    void TearDown() override { setLogThrowOnTerminate(false); }
};

TEST_F(PredictorEdgeFatalTest, RejectsMismatchedProbeVectors)
{
    const std::vector<size_t> two_idx{0, 1};
    const std::vector<double> one_rt{1.0};
    EXPECT_THROW(predictor().predict(two_idx, one_rt),
                 std::runtime_error);
    EXPECT_THROW(predictor().matchClass(two_idx, one_rt),
                 std::runtime_error);
}

TEST_F(PredictorEdgeFatalTest, RejectsNonPositiveRuntimes)
{
    const std::vector<size_t> probes{0};
    const std::vector<double> zero{0.0};
    EXPECT_THROW(predictor().predict(probes, zero),
                 std::runtime_error);
}

TEST_F(PredictorEdgeFatalTest, RejectsEmptyTrainingSet)
{
    EXPECT_THROW(ScalingPredictor({}, {}), std::runtime_error);

    // Surfaces/classifications that disagree in count are equally
    // unusable as training data.
    std::vector<ScalingSurface> surfaces;
    surfaces.push_back(census().surfaces.front());
    EXPECT_THROW(ScalingPredictor(surfaces, {}), std::runtime_error);
}

TEST_F(PredictorEdgeFatalTest, EvaluatePredictionRejectsBadInput)
{
    EXPECT_THROW(evaluatePrediction({}, {}), std::runtime_error);

    const std::vector<double> one{1.0};
    const std::vector<double> two{1.0, 2.0};
    EXPECT_THROW(evaluatePrediction(one, two), std::runtime_error);

    const std::vector<double> bad_truth{0.0};
    EXPECT_THROW(evaluatePrediction(one, bad_truth),
                 std::runtime_error);
}

} // namespace
} // namespace scaling
} // namespace gpuscale
