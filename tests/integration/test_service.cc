/**
 * @file
 * The gpuscaled acceptance proofs (ISSUE 10):
 *
 *  1. Saturation + fault matrix: with >=10% injected faults on the
 *     socket accept/read/write and queue-admission sites, every
 *     client call terminates within its deadline with a well-formed
 *     response — success, typed error, or RETRY_AFTER — no hangs and
 *     no torn frames, and a SIGTERM drain still exits cleanly.
 *
 *  2. Kill/resume: a SIGKILLed service loading the journaled paper
 *     census resumes on restart — health reports replayed records —
 *     and every kernel classified over the socket is bitwise
 *     identical to an uninterrupted in-process census.
 *
 * Fork discipline: the saturation test runs first and all forks
 * happen before this process creates any threads (client threads are
 * joined before the next fork; the in-process census that spins up
 * the harness pool runs only after the final fork).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "base/fault.hh"
#include "gpu/analytic_model.hh"
#include "gpu/config_grid.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "obs/json.hh"
#include "obs/retry.hh"
#include "scaling/shape.hh"
#include "scaling/taxonomy.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "support/temp_dir.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

using namespace std::chrono_literals;

/** Parse a response frame; ADD_FAILURE and null Type on a torn one. */
obs::JsonValue
parseFrame(const std::string &frame)
{
    try {
        obs::JsonValue doc = obs::parseJson(frame);
        if (doc.isObject() && doc.find("ok") != nullptr)
            return doc;
    } catch (const std::exception &) {
    }
    ADD_FAILURE() << "torn/garbled frame: " << frame;
    return obs::JsonValue{};
}

/** Block until health reports a loaded census (or fail the test). */
bool
waitForCensus(service::Client &client, double budget_s)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(budget_s);
    while (std::chrono::steady_clock::now() < deadline) {
        std::string resp;
        if (client.call("{\"id\":1,\"op\":\"health\"}", 2000.0,
                        &resp)) {
            const auto doc = parseFrame(resp);
            if (doc.isObject() &&
                doc.at("result").at("census_loaded").boolean)
                return true;
        } else {
            client.connect(2000.0);
        }
        std::this_thread::sleep_for(50ms);
    }
    return false;
}

// Declaration order is execution order: this test's forks must
// happen before KilledServiceResumesBitwise spins up the harness
// pool in the parent.
TEST(ServiceSaturation, FaultMatrixShedsTypedAndNeverHangs)
{
    test::ScopedTempDir dir("svc_sat");
    const std::string socket_path = dir.sub("gpuscaled.sock");

    const pid_t child = fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Child daemon: >=10% io faults across the socket and
        // admission sites, a tight retry budget, and a tiny
        // admission bound so real sheds happen on top of forced
        // ones.  _exit on failure — gtest cannot cross the fork.
        obs::RetryPolicy policy;
        policy.max_attempts = 6;
        policy.base_backoff_ms = 1.0;
        policy.max_backoff_ms = 5.0;
        obs::setRetryPolicy(policy);
        FaultInjector::instance().arm(
            {{"service.accept", 0.15, FaultKind::IoError, 0.0},
             {"service.conn.read", 0.15, FaultKind::IoError, 0.0},
             {"service.conn.write", 0.15, FaultKind::IoError, 0.0},
             {"service.admit", 0.20, FaultKind::IoError, 0.0}},
            7);

        service::ServiceOptions opts;
        opts.socket_path = socket_path;
        opts.test_grid = true;
        opts.max_inflight = 4;
        opts.client_quota = 2;
        opts.default_deadline_ms = 2000.0;
        const gpu::AnalyticModel model;
        service::Service svc(opts, model);
        if (!svc.start())
            _exit(10);
        svc.installSignalDrain();
        svc.loadCensus();
        svc.serve();
        _exit(0);
    }

    // Parent: a small client fleet hammering every op with 2 s
    // deadlines.  The contract under audit: each call terminates
    // promptly with a parseable frame; transport drops (exhausted
    // write retries, shed connections) are allowed but must fail
    // fast, never hang.
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    ASSERT_GE(kernels.size(), 8u);

    constexpr int kThreads = 6;
    constexpr int kCallsPerThread = 40;
    constexpr double kDeadlineMs = 2000.0;
    // Client-side cap: request deadline + scheduling grace.  A call
    // exceeding this is a hang, the one outcome never allowed.
    constexpr double kHangMs = 6000.0;

    std::atomic<int> ok_frames{0}, typed_errors{0}, sheds{0},
        transport_drops{0}, hangs{0};

    std::vector<std::thread> fleet;
    for (int t = 0; t < kThreads; ++t) {
        fleet.emplace_back([&, t] {
            service::Client client(socket_path);
            client.connect(10000.0);
            for (int i = 0; i < kCallsPerThread; ++i) {
                std::ostringstream os;
                const std::string kernel =
                    kernels[(t * kCallsPerThread + i) % 8]->name;
                switch (i % 6) {
                case 0:
                    os << "{\"id\":" << i << ",\"op\":\"health\"}";
                    break;
                case 1:
                    os << "{\"id\":" << i
                       << ",\"op\":\"classify\",\"client\":\"c" << t
                       << "\",\"deadline_ms\":" << kDeadlineMs
                       << ",\"params\":{\"kernel\":\"" << kernel
                       << "\"}}";
                    break;
                case 2:
                    os << "{\"id\":" << i
                       << ",\"op\":\"predict\",\"client\":\"c" << t
                       << "\",\"deadline_ms\":" << kDeadlineMs
                       << ",\"params\":{\"kernel\":\"" << kernel
                       << "\",\"cu\":4,\"core_clk_mhz\":800,"
                          "\"mem_clk_mhz\":1000}}";
                    break;
                case 3:
                    os << "{\"id\":" << i
                       << ",\"op\":\"stats\",\"client\":\"c" << t
                       << "\",\"deadline_ms\":" << kDeadlineMs << "}";
                    break;
                case 4:
                    os << "{\"id\":" << i
                       << ",\"op\":\"classify\",\"client\":\"c" << t
                       << "\",\"deadline_ms\":" << kDeadlineMs
                       << ",\"params\":{\"kernel\":\"no/such/"
                          "kernel\"}}";
                    break;
                default:
                    os << "{\"id\":" << i
                       << ",\"op\":\"census\",\"client\":\"c" << t
                       << "\",\"deadline_ms\":" << kDeadlineMs << "}";
                    break;
                }

                const auto t0 = std::chrono::steady_clock::now();
                std::string resp;
                const bool got =
                    client.call(os.str(), kDeadlineMs + 1000.0,
                                &resp);
                const double elapsed_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                if (elapsed_ms > kHangMs)
                    hangs.fetch_add(1);

                if (!got) {
                    transport_drops.fetch_add(1);
                    client.connect(5000.0);
                    continue;
                }
                const auto doc = parseFrame(resp);
                if (!doc.isObject())
                    continue; // already failed as torn
                if (doc.at("ok").boolean) {
                    ok_frames.fetch_add(1);
                } else {
                    typed_errors.fetch_add(1);
                    if (doc.at("error").at("code").str ==
                        "RETRY_AFTER")
                        sheds.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : fleet)
        t.join();

    EXPECT_EQ(hangs.load(), 0);
    EXPECT_GT(ok_frames.load(), 0);
    // The tiny bound plus the service.admit fault guarantee sheds;
    // each one must have been a typed RETRY_AFTER frame.
    EXPECT_GT(sheds.load(), 0);
    // Transport drops are bounded by exhausted retries at ~0.15^6 per
    // frame plus shed connections; a majority dropping means the
    // retry envelope is not doing its job.
    EXPECT_LT(transport_drops.load(),
              kThreads * kCallsPerThread / 2);

    // SIGTERM: drain must finish promptly and exit clean.
    ASSERT_EQ(::kill(child, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status))
        << "daemon died of signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServiceResume, KilledServiceResumesBitwise)
{
    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::paperGrid();
    test::ScopedTempDir dir("svc_resume");
    const std::string journal_path = dir.sub("census.journal");
    const std::string sock1 = dir.sub("s1.sock");
    const std::string sock2 = dir.sub("s2.sock");

    const pid_t victim = fork();
    ASSERT_NE(victim, -1);
    if (victim == 0) {
        // First daemon: slow journaled load (the delay fault stalls
        // each kernel ~15 ms) so the parent can SIGKILL it between
        // group commits.
        FaultInjector::instance().arm(
            {{"sweep.kernel", 1.0, FaultKind::Delay, 15.0}}, 0);
        service::ServiceOptions opts;
        opts.socket_path = sock1;
        opts.checkpoint_dir = dir.path();
        const gpu::AnalyticModel child_model;
        service::Service svc(opts, child_model);
        if (!svc.start())
            _exit(10);
        svc.loadCensus();
        svc.serve();
        _exit(0);
    }

    // Parent: wait for the first 64 KB group commit, then kill
    // without warning.
    const auto kill_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool saw_progress = false;
    while (std::chrono::steady_clock::now() < kill_deadline) {
        std::error_code ec;
        const auto size =
            std::filesystem::file_size(journal_path, ec);
        if (!ec && size >= harness::CensusJournal::kFlushBytes) {
            saw_progress = true;
            break;
        }
        std::this_thread::sleep_for(20ms);
    }
    ::kill(victim, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(victim, &status, 0), victim);
    ASSERT_TRUE(saw_progress)
        << "journal never reached a flush before the deadline";

    // Second daemon: same checkpoint dir, fresh socket.  Forked
    // before the parent creates any threads.
    const pid_t revived = fork();
    ASSERT_NE(revived, -1);
    if (revived == 0) {
        service::ServiceOptions opts;
        opts.socket_path = sock2;
        opts.checkpoint_dir = dir.path();
        const gpu::AnalyticModel child_model;
        service::Service svc(opts, child_model);
        if (!svc.start())
            _exit(10);
        svc.installSignalDrain();
        svc.loadCensus();
        svc.serve();
        _exit(0);
    }

    // The oracle: an uninterrupted in-process census (this spins up
    // the harness pool — safe now, all forks are done).
    const auto clean = harness::runCensus(model, space);

    service::Client client(sock2);
    ASSERT_TRUE(client.connect(30000.0));
    ASSERT_TRUE(waitForCensus(client, 240.0))
        << "revived daemon never finished its census";

    // Health must prove this was a resume, not a restart.
    std::string resp;
    ASSERT_TRUE(client.call("{\"id\":2,\"op\":\"health\"}", 5000.0,
                            &resp));
    const auto health = parseFrame(resp);
    ASSERT_TRUE(health.isObject());
    EXPECT_GT(health.at("result").at("journal_replayed").number, 0.0);
    EXPECT_LT(health.at("result").at("journal_replayed").number,
              267.0);
    EXPECT_DOUBLE_EQ(health.at("result").at("kernels").number, 267.0);

    // Every kernel, classified over the socket, must match the clean
    // census bitwise.  JsonWriter emits shortest-round-trip doubles,
    // so equality after a parse round trip is bitwise equality.
    const auto checkVerdict = [](const obs::JsonValue &got,
                                 const scaling::ShapeVerdict &want,
                                 const std::string &kernel) {
        EXPECT_EQ(got.at("shape").str, scaling::shapeName(want.shape))
            << kernel;
        EXPECT_EQ(got.at("total_gain").number, want.total_gain)
            << kernel;
        EXPECT_EQ(got.at("efficiency").number, want.efficiency)
            << kernel;
    };
    for (const auto &want : clean.classifications) {
        std::ostringstream os;
        os << "{\"id\":3,\"op\":\"classify\",\"params\":{\"kernel\":"
           << "\"" << want.kernel << "\"}}";
        ASSERT_TRUE(client.call(os.str(), 10000.0, &resp))
            << want.kernel;
        const auto doc = parseFrame(resp);
        ASSERT_TRUE(doc.isObject()) << want.kernel;
        ASSERT_TRUE(doc.at("ok").boolean)
            << want.kernel << ": " << resp;
        const auto &result = doc.at("result");
        EXPECT_EQ(result.at("class").str,
                  scaling::taxonomyClassName(want.cls))
            << want.kernel;
        EXPECT_EQ(result.at("perf_range").number, want.perf_range)
            << want.kernel;
        EXPECT_DOUBLE_EQ(result.at("cu90").number,
                         static_cast<double>(want.cu90))
            << want.kernel;
        checkVerdict(result.at("freq"), want.freq, want.kernel);
        checkVerdict(result.at("mem"), want.mem, want.kernel);
        checkVerdict(result.at("cu"), want.cu, want.kernel);
    }

    // Drain the revived daemon; a clean exit closes the journal too.
    ASSERT_EQ(::kill(revived, SIGTERM), 0);
    ASSERT_EQ(::waitpid(revived, &status, 0), revived);
    ASSERT_TRUE(WIFEXITED(status))
        << "daemon died of signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace
} // namespace gpuscale
