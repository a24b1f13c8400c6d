/**
 * @file
 * Instrument-description rule tests: registrations through the
 * registry's counter/gauge/histogram methods must carry a non-empty
 * description literal; computed descriptions and allow() suppressions
 * are respected.
 */

#include <gtest/gtest.h>

#include "analysis_test_util.hh"

namespace {

using namespace gpuscale::analysis;
using namespace gpuscale::analysis::test;

TEST(RuleDescription, FlagsMissingAndEmptyDescriptions)
{
    const auto repo = loadFixture("description_bad");
    const auto report = runRule(*makeDescriptionRule(), repo);

    // counter("bare.counter") and gauge("empty.gauge", "") — while
    // the described, the concatenated, the computed, and the
    // suppressed registrations stay silent.
    EXPECT_EQ(findingCount(report, "description"), 2u)
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "bare.counter"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "empty.gauge"))
        << report.render();
    EXPECT_FALSE(anyMessageContains(report, "good.hist"));
    EXPECT_FALSE(anyMessageContains(report, "concat.hist"));
    EXPECT_FALSE(anyMessageContains(report, "computed.desc"));

    // The legacy registration is suppressed, not silently dropped.
    EXPECT_FALSE(anyMessageContains(report, "legacy.counter"));
    EXPECT_EQ(report.suppressedCount(), 1u);
}

TEST(RuleDescription, RealRepoInstrumentsAreAllDescribed)
{
    const auto repo = loadRepo(requiredEnv("GPUSCALE_REPO_ROOT"));
    const auto report = runRule(*makeDescriptionRule(), repo);
    EXPECT_EQ(findingCount(report, "description"), 0u)
        << report.render();
}

} // namespace
