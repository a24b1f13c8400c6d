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
 *  3. Limits: over-long and over-deep request frames get BAD_REQUEST
 *     and the daemon keeps serving other clients.
 *
 * Fork discipline: the saturation test runs first and all forks
 * happen before this process creates any threads (client threads are
 * joined before the next fork; the in-process census that spins up
 * the harness pool runs only after the final fork).
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <initializer_list>
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
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/temp_dir.hh"
#include "workloads/registry.hh"

namespace gpuscale {
namespace {

using namespace std::chrono_literals;

/**
 * Parse a response frame; ADD_FAILURE and null Type on a torn one.
 * An object it returns always has "ok".
 */
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

/**
 * Follow `keys` through nested objects; nullptr when one is missing.
 * JsonValue::at() would panic and abort the whole test process (and
 * leave its daemon children running); a null here fails only the
 * assertion that checks it.
 */
const obs::JsonValue *
member(const obs::JsonValue &doc, std::initializer_list<const char *> keys)
{
    const obs::JsonValue *v = &doc;
    for (const char *key : keys) {
        v = v->find(key);
        if (v == nullptr)
            return nullptr;
    }
    return v;
}

/**
 * fork() a daemon child that cannot outlive this process: the child
 * gets SIGKILL when the parent dies, and exits at once if the parent
 * died before the request took effect.
 */
pid_t
forkDaemon()
{
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            _exit(11);
    }
    return pid;
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
            const auto *loaded = member(doc, {"result", "census_loaded"});
            if (loaded != nullptr && loaded->boolean)
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

    const pid_t child = forkDaemon();
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
                if (member(doc, {"ok"})->boolean) {
                    ok_frames.fetch_add(1);
                    continue;
                }
                typed_errors.fetch_add(1);
                const auto *code = member(doc, {"error", "code"});
                EXPECT_NE(code, nullptr) << "untyped error: " << resp;
                if (code != nullptr && code->str == "RETRY_AFTER")
                    sheds.fetch_add(1);
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

/**
 * Write `bytes` on a fresh connection and return the first response
 * line (without its newline), or "" if none came.  The daemon may
 * close the connection mid-write (that is what the line cap does), so
 * a failed send ends the write, not the exchange.
 */
std::string
rawExchange(const std::string &socket_path, const std::string &bytes)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return "";
    }
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    for (size_t off = 0; off < bytes.size();) {
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    std::string line;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1 && c != '\n')
        line.push_back(c);
    ::close(fd);
    return line;
}

/** ADD_FAILURE unless `frame` is a BAD_REQUEST error frame. */
void
expectBadRequest(const std::string &frame, const std::string &what)
{
    const auto doc = parseFrame(frame);
    ASSERT_TRUE(doc.isObject()) << what;
    const auto *code = member(doc, {"error", "code"});
    ASSERT_NE(code, nullptr) << what << ": " << frame;
    EXPECT_EQ(code->str, "BAD_REQUEST") << what;
}

// The parser bounds (docs/service.md, "Limits"): a line longer than
// kMaxLineBytes or a document nested deeper than obs::kMaxJsonDepth
// gets one BAD_REQUEST frame, and the daemon keeps serving everyone
// else.  Before the bounds, one 200,000-'[' line overflowed the
// parser's stack and killed the daemon.  Forks before the resume
// test, like the saturation test, and starts no threads.
TEST(ServiceLimits, OversizedAndDeepFramesGetBadRequest)
{
    test::ScopedTempDir dir("svc_limits");
    const std::string socket_path = dir.sub("gpuscaled.sock");

    const pid_t child = forkDaemon();
    ASSERT_NE(child, -1);
    if (child == 0) {
        service::ServiceOptions opts;
        opts.socket_path = socket_path;
        opts.test_grid = true;
        const gpu::AnalyticModel model;
        service::Service svc(opts, model);
        if (!svc.start())
            _exit(10);
        svc.installSignalDrain();
        svc.serve();
        _exit(0);
    }

    const std::string health = "{\"id\":1,\"op\":\"health\"}";
    service::Client bystander(socket_path);
    ASSERT_TRUE(bystander.connect(10000.0));
    const auto expectServed = [&](service::Client &client,
                                  const std::string &request,
                                  const std::string &what) {
        std::string resp;
        ASSERT_TRUE(client.call(request, 5000.0, &resp)) << what;
        const auto doc = parseFrame(resp);
        ASSERT_TRUE(doc.isObject()) << what;
        EXPECT_TRUE(member(doc, {"ok"})->boolean) << what << ": " << resp;
    };
    expectServed(bystander, health, "before");

    // A newline-free stream is cut off at the cap, not buffered.
    expectBadRequest(rawExchange(socket_path, std::string(1 << 20, 'x')),
                     "1 MiB without a newline");
    expectServed(bystander, health, "after the 1 MiB stream");

    // The line that used to crash the daemon.
    expectBadRequest(
        rawExchange(socket_path, std::string(200000, '[') + "\n"),
        "200,000 '['");
    expectServed(bystander, health, "after 200,000 '['");

    // Deep nesting inside the line cap reaches the parser, which
    // rejects it; that connection stays open and usable.
    {
        service::Client deep(socket_path);
        ASSERT_TRUE(deep.connect(10000.0));
        std::string resp;
        ASSERT_TRUE(deep.call(std::string(60000, '['), 5000.0, &resp));
        expectBadRequest(resp, "60,000 '['");
        expectServed(deep, health, "same connection after deep nesting");
    }

    // The cap is inclusive: a request of exactly kMaxLineBytes is
    // served, one byte more is not.
    std::string padded = health;
    padded.resize(service::kMaxLineBytes, ' ');
    expectServed(bystander, padded, "line of exactly the cap");
    expectBadRequest(rawExchange(socket_path, padded + " \n"),
                     "line one byte over the cap");
    expectServed(bystander, health, "after");

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

    const pid_t victim = forkDaemon();
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
    const pid_t revived = forkDaemon();
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
    const auto *replayed =
        member(health, {"result", "journal_replayed"});
    const auto *kernels = member(health, {"result", "kernels"});
    ASSERT_NE(replayed, nullptr) << resp;
    ASSERT_NE(kernels, nullptr) << resp;
    EXPECT_GT(replayed->number, 0.0);
    EXPECT_LT(replayed->number, 267.0);
    EXPECT_DOUBLE_EQ(kernels->number, 267.0);

    // Every kernel, classified over the socket, must match the clean
    // census bitwise.  JsonWriter emits shortest-round-trip doubles,
    // so equality after a parse round trip is bitwise equality.
    const auto checkVerdict = [](const obs::JsonValue &result,
                                 const char *axis,
                                 const scaling::ShapeVerdict &want,
                                 const std::string &kernel) {
        const auto *shape = member(result, {axis, "shape"});
        const auto *total_gain = member(result, {axis, "total_gain"});
        const auto *efficiency = member(result, {axis, "efficiency"});
        ASSERT_NE(shape, nullptr) << kernel << " " << axis;
        ASSERT_NE(total_gain, nullptr) << kernel << " " << axis;
        ASSERT_NE(efficiency, nullptr) << kernel << " " << axis;
        EXPECT_EQ(shape->str, scaling::shapeName(want.shape)) << kernel;
        EXPECT_EQ(total_gain->number, want.total_gain) << kernel;
        EXPECT_EQ(efficiency->number, want.efficiency) << kernel;
    };
    for (const auto &want : clean.classifications) {
        std::ostringstream os;
        os << "{\"id\":3,\"op\":\"classify\",\"params\":{\"kernel\":"
           << "\"" << want.kernel << "\"}}";
        ASSERT_TRUE(client.call(os.str(), 10000.0, &resp))
            << want.kernel;
        const auto doc = parseFrame(resp);
        ASSERT_TRUE(doc.isObject()) << want.kernel;
        ASSERT_TRUE(member(doc, {"ok"})->boolean)
            << want.kernel << ": " << resp;
        const auto *result = member(doc, {"result"});
        ASSERT_NE(result, nullptr) << want.kernel << ": " << resp;
        const auto *cls = member(*result, {"class"});
        const auto *perf_range = member(*result, {"perf_range"});
        const auto *cu90 = member(*result, {"cu90"});
        ASSERT_NE(cls, nullptr) << want.kernel << ": " << resp;
        ASSERT_NE(perf_range, nullptr) << want.kernel << ": " << resp;
        ASSERT_NE(cu90, nullptr) << want.kernel << ": " << resp;
        EXPECT_EQ(cls->str, scaling::taxonomyClassName(want.cls))
            << want.kernel;
        EXPECT_EQ(perf_range->number, want.perf_range) << want.kernel;
        EXPECT_DOUBLE_EQ(cu90->number, static_cast<double>(want.cu90))
            << want.kernel;
        checkVerdict(*result, "freq", want.freq, want.kernel);
        checkVerdict(*result, "mem", want.mem, want.kernel);
        checkVerdict(*result, "cu", want.cu, want.kernel);
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
