/**
 * @file
 * Tests for the telemetry session gpuscale and gpuscaled share: which
 * arguments it claims, and the exit-code decision at shutdown.
 */

#include "obs/telemetry_session.hh"

#include <gtest/gtest.h>

#include <filesystem>

#include "obs/fault_telemetry.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace obs {
namespace {

using Flag = TelemetrySession::Flag;

TEST(TelemetrySessionTest, ClaimsOnlyTheTelemetryOptions)
{
    TelemetrySession session;
    for (const char *arg :
         {"--trace=t.json", "--metrics=m.json", "--metrics-interval=50",
          "--metrics-jsonl=m.jsonl", "--exposition=x.txt",
          "--flight-recorder=fr"})
    {
        EXPECT_EQ(session.parseFlag(arg), Flag::Parsed) << arg;
    }
    for (const char *arg : {"--checkpoint=d", "--metricsx", "census"})
        EXPECT_EQ(session.parseFlag(arg), Flag::NotMine) << arg;
}

TEST(TelemetrySessionTest, RejectsABadInterval)
{
    TelemetrySession session;
    EXPECT_EQ(session.parseFlag("--metrics-interval=abc"), Flag::Invalid);
    EXPECT_EQ(session.parseFlag("--metrics-interval=0"), Flag::Invalid);
    EXPECT_EQ(session.parseFlag("--metrics-interval=-5"), Flag::Invalid);
}

TEST(TelemetrySessionTest, FinishWritesSnapshotsAndPromotesDegradation)
{
    test::ScopedTempDir dir("telemetry_session");
    TelemetrySession session;
    ASSERT_EQ(session.parseFlag("--metrics=" + dir.sub("m.json")),
              Flag::Parsed);
    ASSERT_EQ(session.parseFlag("--exposition=" + dir.sub("x.txt")),
              Flag::Parsed);
    session.start();
    EXPECT_EQ(session.finish(0, /*print_table=*/false), 0);
    EXPECT_TRUE(std::filesystem::exists(dir.sub("m.json")));
    EXPECT_TRUE(std::filesystem::exists(dir.sub("x.txt")));

    // An absorbed fault turns success into exit 4 but never masks a
    // failure code.
    noteDegradation("test");
    EXPECT_EQ(TelemetrySession().finish(0, false), kExitDegraded);
    EXPECT_EQ(TelemetrySession().finish(1, false), 1);
}

} // namespace
} // namespace obs
} // namespace gpuscale
