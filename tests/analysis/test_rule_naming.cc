/**
 * @file
 * Telemetry-naming rule tests: metric keys, trace-span literals, and
 * manifest extra keys must be lowercase dotted.
 */

#include <gtest/gtest.h>

#include "analysis_test_util.hh"

namespace {

using namespace gpuscale::analysis;
using namespace gpuscale::analysis::test;

TEST(RuleNaming, FlagsUppercaseKeysButNotConformingOnes)
{
    const auto repo = loadFixture("naming_bad");
    const auto report = runRule(*makeNamingRule(), repo);

    // counter("Sweep.Estimates"), GPUSCALE_TRACE_SCOPE("BadSpan"),
    // and extra["Bad-Key"] — while "sweep.ok_name", the "sweep/"
    // runtime prefix, and "noise_sigma" stay silent.
    EXPECT_EQ(findingCount(report, "naming"), 3u) << report.render();
    EXPECT_TRUE(anyMessageContains(report, "Sweep.Estimates"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "BadSpan"))
        << report.render();
    EXPECT_TRUE(anyMessageContains(report, "Bad-Key"))
        << report.render();
}

TEST(RuleNaming, KeyPredicates)
{
    EXPECT_TRUE(isLowercaseDottedKey("sweep.estimates"));
    EXPECT_TRUE(isLowercaseDottedKey("noise_sigma"));
    EXPECT_FALSE(isLowercaseDottedKey("Sweep.Estimates"));
    EXPECT_FALSE(isLowercaseDottedKey("sweep..x"));
    EXPECT_FALSE(isLowercaseDottedKey(""));

    EXPECT_TRUE(isLowercaseSpanName("parallel_for.worker"));
    EXPECT_TRUE(isLowercaseSpanName("sweep/"));
    EXPECT_FALSE(isLowercaseSpanName("BadSpan"));
}

} // namespace
