/**
 * @file
 * Flight recorder tests: ring round-trip, wrap behavior, record-time
 * sanitization, the crash-dump-on-abort path, and the acceptance
 * proof that a SIGKILLed process leaves a readable black box behind.
 *
 * The fork-based tests fork before this process creates any threads
 * (forking a multi-threaded process can clone a held malloc lock into
 * the child); the recorder itself spawns none.
 */

#include "obs/flight_recorder.hh"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "obs/json.hh"
#include "support/temp_dir.hh"

namespace gpuscale {
namespace obs {
namespace {

JsonValue
parseFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return parseJson(text);
}

/** Poll for a file to appear, up to a generous deadline. */
bool
waitForFile(const std::string &path)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec) && !ec)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

TEST(FlightRecorderTest, RecordDumpRoundTripInSequenceOrder)
{
    test::ScopedTempDir dir("flight_roundtrip");
    const std::string ring = dir.sub("flight.ring");
    const std::string json = dir.sub("flight.json");

    ASSERT_TRUE(FlightRecorder::start(ring, 16));
    EXPECT_TRUE(FlightRecorder::active());
    // A second start is refused, not stacked.
    EXPECT_FALSE(FlightRecorder::start(ring, 16));

    FlightRecorder::record("event", "first", "d=1", 100, 0);
    FlightRecorder::recordSpan("sweep/kernel", 200.0, 50.0);
    FlightRecorder::record("degradation", "cache miss storm");

    EXPECT_EQ(FlightRecorder::dump(json, "test"), 3u);
    FlightRecorder::stop();
    EXPECT_FALSE(FlightRecorder::active());

    const JsonValue doc = parseFile(json);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("reason").str, "test");
    const auto &events = doc.at("events").array;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("name").str, "first");
    EXPECT_EQ(events[0].at("kind").str, "event");
    EXPECT_EQ(events[0].at("detail").str, "d=1");
    EXPECT_DOUBLE_EQ(events[0].at("ts_us").number, 100.0);
    EXPECT_EQ(events[1].at("kind").str, "span");
    EXPECT_EQ(events[1].at("name").str, "sweep/kernel");
    EXPECT_DOUBLE_EQ(events[1].at("dur_us").number, 50.0);
    EXPECT_EQ(events[2].at("kind").str, "degradation");
    // Sequence numbers are strictly increasing.
    EXPECT_LT(events[0].at("seq").number, events[1].at("seq").number);
    EXPECT_LT(events[1].at("seq").number, events[2].at("seq").number);
}

TEST(FlightRecorderTest, RingWrapKeepsTheNewestEvents)
{
    test::ScopedTempDir dir("flight_wrap");
    const std::string ring = dir.sub("flight.ring");
    const std::string json = dir.sub("flight.json");

    constexpr size_t kSlots = 8;
    ASSERT_TRUE(FlightRecorder::start(ring, kSlots));
    for (int i = 0; i < 20; ++i)
        FlightRecorder::record("event", "e" + std::to_string(i));
    EXPECT_EQ(FlightRecorder::dump(json, "wrap"), kSlots);
    FlightRecorder::stop();

    const JsonValue doc = parseFile(json);
    const auto &events = doc.at("events").array;
    ASSERT_EQ(events.size(), kSlots);
    // Oldest surviving event is #12 (0-based): 20 recorded, 8 kept.
    EXPECT_EQ(events.front().at("name").str, "e12");
    EXPECT_EQ(events.back().at("name").str, "e19");
}

TEST(FlightRecorderTest, HostileStringsAreSanitizedAtRecordTime)
{
    test::ScopedTempDir dir("flight_sanitize");
    const std::string ring = dir.sub("flight.ring");
    const std::string json = dir.sub("flight.json");

    ASSERT_TRUE(FlightRecorder::start(ring, 8));
    FlightRecorder::record("ev\"il", "quote\"brace}newline\n",
                           "back\\slash");
    EXPECT_EQ(FlightRecorder::dump(json, "sanitize"), 1u);
    FlightRecorder::stop();

    // The dump must still parse — record() already replaced every
    // character outside the telemetry charset with '_'.
    const JsonValue doc = parseFile(json);
    const auto &events = doc.at("events").array;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].at("kind").str, "ev_il");
    EXPECT_EQ(events[0].at("name").str, "quote_brace_newline_");
    EXPECT_EQ(events[0].at("detail").str, "back_slash");
}

TEST(FlightRecorderTest, InactiveRecorderIsInert)
{
    ASSERT_FALSE(FlightRecorder::active());
    FlightRecorder::record("event", "dropped"); // Must not crash.
    EXPECT_EQ(FlightRecorder::dump("/tmp/never-written.json", "x"),
              0u);
    FlightRecorder::stop();
}

TEST(FlightRecorderTest, RenderRingFileRejectsNonRings)
{
    test::ScopedTempDir dir("flight_badring");
    EXPECT_THROW(renderRingFile(dir.sub("missing.ring")),
                 std::runtime_error);

    const std::string not_ring = dir.sub("not_a.ring");
    std::ofstream(not_ring) << "this is not a flight ring";
    EXPECT_THROW(renderRingFile(not_ring), std::runtime_error);
}

// The acceptance proof: a process killed with SIGKILL — which no
// handler can observe — leaves an mmap'd ring whose dirty pages
// survive in the page cache, and the post-mortem reader recovers the
// last span recorded before the kill.
TEST(FlightRecorderKillTest, SigkilledProcessLeavesReadableBlackBox)
{
    test::ScopedTempDir dir("flight_kill");
    const std::string ring = dir.sub("flight.ring");
    const std::string ready = dir.sub("ready");

    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Child: record a history ending in a known span, signal
        // readiness, then wait to be killed.  _exit on any failure —
        // gtest assertions cannot cross the fork.
        if (!FlightRecorder::start(ring, 32))
            _exit(10);
        for (int i = 0; i < 40; ++i)
            FlightRecorder::record("event", "warmup",
                                   std::to_string(i));
        FlightRecorder::recordSpan("sweep/rodinia/last-span-marker",
                                   1000.0, 42.0);
        { std::ofstream(ready) << "ok"; }
        for (;;)
            ::pause();
    }

    ASSERT_TRUE(waitForFile(ready)) << "child never became ready";
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Post-mortem: the ring file must render to parseable JSON whose
    // final event is the last span recorded before the kill.
    const JsonValue doc = parseJson(renderRingFile(ring));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("reason").str, "post-mortem");
    const auto &events = doc.at("events").array;
    ASSERT_FALSE(events.empty());
    const JsonValue &last = events.back();
    EXPECT_EQ(last.at("kind").str, "span");
    EXPECT_EQ(last.at("name").str,
              "sweep/rodinia/last-span-marker");
    EXPECT_DOUBLE_EQ(last.at("dur_us").number, 42.0);
}

// The catchable-crash path: SIGABRT (what panic() and fault-injection
// aborts raise) must produce the black-box dump from inside the
// signal handler before the process dies with the signal.
TEST(FlightRecorderKillTest, AbortProducesCrashDump)
{
    test::ScopedTempDir dir("flight_abort");
    const std::string ring = dir.sub("flight.ring");
    const std::string json = dir.sub("flight.json");

    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        if (!FlightRecorder::start(ring, 32))
            _exit(10);
        FlightRecorder::installCrashDump(json);
        FlightRecorder::record("fault", "injected-io-fault",
                               "site=checkpoint.append");
        std::abort();
    }

    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGABRT);

    const JsonValue doc = parseFile(json);
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("reason").str, "signal:SIGABRT");
    const auto &events = doc.at("events").array;
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().at("kind").str, "fault");
    EXPECT_EQ(events.back().at("name").str, "injected-io-fault");
}

} // namespace
} // namespace obs
} // namespace gpuscale
