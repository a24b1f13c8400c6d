/**
 * @file
 * service_mix: gpuscaled as a child process, driven by an open-loop
 * request schedule from one client thread.
 *
 * The client multiplexes a few pipelined connections (no more than
 * nproc) with poll(): a request goes out when it is due, on the
 * connection with the fewest requests outstanding, whatever the
 * state of earlier requests, and is timed from when it was due.
 */
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <random>
#include <thread>

#include "bench.hh"
#include "gpu/analytic_model.hh"
#include "harness/experiment.hh"
#include "obs/json.hh"
#include "scaling/taxonomy.hh"
#include "service/client.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using namespace gpuscale;

/**
 * Nominal offered rate, well under the daemon's capacity (a closed
 * loop reaches about 70k calls/s on 4 cores).  At 5k/s the daemon's
 * threads idle between requests and per-second medians wandered by a
 * third; at 10k/s they stay warm.
 */
constexpr double kNominalRps = 10000.0;
/** An untimed lead-in at the nominal rate before the measured phase. */
constexpr double kWarmupS = 1.0;
/** How long replies may trail the last due time before they count lost. */
constexpr double kDrainS = 5.0;
/** A census refresh is due this often in the nominal phase. */
constexpr double kRefreshPeriodS = 1.0;
constexpr int kDaemonBoots = 9;
constexpr int kRttCalls = 300;

// ---------------------------------------------------------------------
// The request stream

/** A uniform draw in [0, 1) from the top 53 bits. */
double
unit(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::string
predictFrame(uint64_t id, const MixRequest &r)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%llu,\"op\":\"predict\",\"params\":{"
                  "\"kernel\":\"%s\",\"cu\":%d,\"core_clk_mhz\":%.0f,"
                  "\"mem_clk_mhz\":%.0f}}\n",
                  static_cast<unsigned long long>(id),
                  obs::jsonEscape(r.kernel->name).c_str(), r.cu,
                  r.core_clk_mhz, r.mem_clk_mhz);
    return buf;
}

std::string
simpleFrame(uint64_t id, const std::string &op,
            const std::string &params)
{
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"" + op + "\"" +
           (params.empty() ? "" : ",\"params\":" + params) + "}\n";
}

/** Request id carried by a generated frame. */
uint64_t
frameId(const std::string &frame)
{
    return std::strtoull(frame.c_str() + 6, nullptr, 10);
}

// ---------------------------------------------------------------------
// The daemon

struct Daemon {
    int pid = -1;
    std::string dir;
    std::string socket;
    double boot_s = 0.0;

    std::string journal() const { return dir + "/ckpt/census.journal"; }
};

/** One call on a blocking client; the parsed frame, Null on failure. */
obs::JsonValue
callJson(service::Client &client, const std::string &frame)
{
    std::string resp;
    if (!client.call(frame, 5000.0, &resp))
        return {};
    try {
        return obs::parseJson(resp);
    } catch (const std::exception &) {
        return {};
    }
}

/**
 * Start gpuscaled the way docs/service.md's runbook does (a fresh
 * --checkpoint directory, the paper grid) and wait until health
 * reports census_loaded.  The socket path is relative to the shared
 * working directory, which keeps it inside sun_path's limit.
 */
Daemon
bootDaemon(const Options &opts)
{
    Daemon d;
    d.dir = makeScratchDir(opts, "gpuscaled");
    d.socket = d.dir + "/d.sock";
    const double t0 = nowS();
    const CpuSplit cpus = splitCpus();
    d.pid = spawnChild({opts.bin_dir + "/gpuscaled", "--socket=" + d.socket,
                        "--checkpoint=" + d.dir + "/ckpt", "serve"},
                       {"GPUSCALE_LOG=warn"},
                       cpus.split ? &cpus.server : nullptr);
    service::Client client(d.socket);
    while (nowS() - t0 < 60.0) {
        if (!client.connected() && !client.connect(0.0)) {
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            continue;
        }
        const auto health =
            callJson(client, simpleFrame(0, "health", ""));
        const auto *result = health.find("result");
        const auto *loaded =
            result != nullptr ? result->find("census_loaded") : nullptr;
        if (loaded != nullptr && loaded->isBool() && loaded->boolean) {
            d.boot_s = nowS() - t0;
            return d;
        }
        if (health.isNull())
            client.close();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    std::fprintf(stderr, "perfbench: gpuscaled did not load its census\n");
    stopChild(d.pid, 5.0);
    std::exit(1);
}

/** The daemon's counters from a stats call. */
std::map<std::string, double>
daemonCounters(const Daemon &d)
{
    std::map<std::string, double> out;
    service::Client client(d.socket);
    if (!client.connect(1000.0))
        return out;
    const auto stats = callJson(client, simpleFrame(0, "stats", ""));
    const auto *result = stats.find("result");
    const auto *counters =
        result != nullptr ? result->find("counters") : nullptr;
    if (counters != nullptr) {
        for (const auto &[name, v] : counters->object)
            out[name] = v.number;
    }
    return out;
}

/** Median health round trip on an idle daemon, in microseconds. */
double
idleRttUs(const Daemon &d)
{
    service::Client client(d.socket);
    if (!client.connect(1000.0))
        return std::nan("");
    std::vector<double> us;
    std::string resp;
    const std::string frame = simpleFrame(0, "health", "");
    for (int i = 0; i < kRttCalls; ++i) {
        const double t0 = nowS();
        if (!client.call(frame, 1000.0, &resp))
            return std::nan("");
        us.push_back((nowS() - t0) * 1e6);
    }
    return median(us);
}

// ---------------------------------------------------------------------
// The open loop

struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    /** Requests not yet fully written: (index, end offset in out). */
    std::deque<std::pair<size_t, size_t>> unsent;
    /** Requests written or queued, awaiting responses in order. */
    std::deque<size_t> pending;
    std::string in;
    bool dead = false;
};

std::vector<Conn>
openConnections(const Daemon &d, size_t n)
{
    std::vector<Conn> conns(n);
    for (auto &c : conns) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, d.socket.c_str(),
                     sizeof(addr.sun_path) - 1);
        c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
        if (c.fd < 0 ||
            ::connect(c.fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0)
        {
            std::fprintf(stderr, "perfbench: cannot connect to %s\n",
                         d.socket.c_str());
            std::exit(1);
        }
    }
    return conns;
}

void
closeConnections(std::vector<Conn> &conns)
{
    for (auto &c : conns)
        ::close(c.fd);
    conns.clear();
}

/** One scheduled send: due time from the phase start, and the frame. */
struct Planned {
    double due_s = 0.0;
    const std::string *frame = nullptr;
};

/** What a phase left behind: timings and raw response lines. */
struct PhaseResult {
    std::vector<OpenLoopRecord> records;
    std::vector<std::string> responses;
};

/**
 * Send `plan` on schedule over `conns` and collect every response,
 * waiting up to kDrainS after the last due time.  With a recorder,
 * each completed request due inside a traced window (`traced(due)`)
 * records a request span and its round-trip child as it completes.
 */
template <typename TracedFn>
PhaseResult
runOpenLoop(std::vector<Conn> &conns, const std::vector<Planned> &plan,
            SpanRecorder *rec, TracedFn traced)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    PhaseResult r;
    r.records.resize(plan.size());
    r.responses.resize(plan.size());
    for (size_t i = 0; i < plan.size(); ++i)
        r.records[i] = {plan[i].due_s, nan, nan};
    if (plan.empty())
        return r;

    // The generator gets a CPU of its own (the daemon runs on the
    // others), so its lateness measures the schedule, not how often
    // the daemon's workers preempt it.
    const CpuSplit cpus = splitCpus();
    cpu_set_t saved;
    sched_getaffinity(0, sizeof saved, &saved);
    if (cpus.split)
        sched_setaffinity(0, sizeof cpus.client, &cpus.client);
    // The default 50 us timer slack would make every send that late.
    const int slack = prctl(PR_GET_TIMERSLACK);
    prctl(PR_SET_TIMERSLACK, 1000UL);
    struct Restore {
        cpu_set_t cpus;
        int slack;
        ~Restore()
        {
            sched_setaffinity(0, sizeof cpus, &cpus);
            prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack));
        }
    } restore{saved, slack};
    const double t0 = nowS();
    const int64_t t0_ns = nowNs();
    const double hard_end = t0 + plan.back().due_s + kDrainS;
    size_t next = 0, finished = 0;
    std::vector<pollfd> fds(conns.size());

    auto complete = [&](size_t idx, std::string line, double at) {
        r.records[idx].done_s = at - t0;
        r.responses[idx] = std::move(line);
        ++finished;
        if (rec == nullptr || !traced(plan[idx].due_s))
            return;
        const auto ns = [&](double rel_s) {
            return t0_ns + static_cast<int64_t>(rel_s * 1e9);
        };
        rec->beginOp();
        Span root{"request", "bench", ns(plan[idx].due_s),
                  ns(r.records[idx].done_s), -1, 0};
        const int parent = rec->add(root);
        Span call{"call", "service", ns(r.records[idx].sent_s),
                  ns(r.records[idx].done_s), parent, 0};
        rec->add(call);
    };

    while (finished < plan.size()) {
        double now = nowS();
        if (now > hard_end)
            break;
        while (next < plan.size() && t0 + plan[next].due_s <= now) {
            Conn *best = nullptr;
            for (auto &c : conns) {
                if (!c.dead && (best == nullptr ||
                                c.pending.size() < best->pending.size()))
                    best = &c;
            }
            if (best == nullptr)
                break;
            best->out += *plan[next].frame;
            best->unsent.emplace_back(next, best->out.size());
            best->pending.push_back(next);
            ++next;
        }

        for (auto &c : conns) {
            if (c.dead || c.out_off == c.out.size())
                continue;
            const ssize_t n =
                ::send(c.fd, c.out.data() + c.out_off,
                       c.out.size() - c.out_off,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n < 0 && errno != EAGAIN && errno != EINTR) {
                c.dead = true;
                continue;
            }
            if (n <= 0)
                continue;
            c.out_off += static_cast<size_t>(n);
            const double at = nowS() - t0;
            while (!c.unsent.empty() && c.unsent.front().second <= c.out_off) {
                r.records[c.unsent.front().first].sent_s = at;
                c.unsent.pop_front();
            }
            if (c.out_off == c.out.size()) {
                c.out.clear();
                c.out_off = 0;
            }
        }

        now = nowS();
        double wait_s = 0.01;
        if (next < plan.size())
            wait_s = std::min(wait_s, t0 + plan[next].due_s - now);
        for (size_t i = 0; i < conns.size(); ++i) {
            fds[i].fd = conns[i].dead ? -1 : conns[i].fd;
            fds[i].events = static_cast<short>(
                POLLIN | (conns[i].out_off < conns[i].out.size() ? POLLOUT
                                                                 : 0));
            fds[i].revents = 0;
        }
        timespec ts{};
        if (wait_s > 0) {
            ts.tv_sec = static_cast<time_t>(wait_s);
            ts.tv_nsec = static_cast<long>((wait_s - ts.tv_sec) * 1e9);
        }
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue;

        for (size_t i = 0; i < conns.size(); ++i) {
            Conn &c = conns[i];
            if (c.dead || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            char buf[65536];
            while (true) {
                const ssize_t n = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
                if (n > 0) {
                    c.in.append(buf, static_cast<size_t>(n));
                    continue;
                }
                if (n == 0 || (errno != EAGAIN && errno != EINTR))
                    c.dead = true;
                break;
            }
            const double at = nowS();
            size_t start = 0, nl;
            while ((nl = c.in.find('\n', start)) != std::string::npos) {
                if (!c.pending.empty()) {
                    complete(c.pending.front(),
                             c.in.substr(start, nl - start), at);
                    c.pending.pop_front();
                }
                start = nl + 1;
            }
            c.in.erase(0, start);
        }
        if (std::all_of(conns.begin(), conns.end(),
                        [](const Conn &c) { return c.dead; }))
            break;
    }
    return r;
}

// ---------------------------------------------------------------------
// Checks

/** Everything the responses are checked against, computed in-process. */
struct Reference {
    gpu::AnalyticModel model;
    scaling::ConfigSpace space = scaling::ConfigSpace::paperGrid();
    std::map<std::string, const scaling::KernelClassification *> rows;
    std::vector<size_t> histogram;
    harness::CensusResult census;

    Reference() : census(harness::runCensus(model, space))
    {
        for (const auto &c : census.classifications)
            rows[c.kernel] = &c;
        histogram = scaling::classHistogram(census.classifications);
    }

    double
    runtime(const MixRequest &r) const
    {
        gpu::ConfigGrid grid;
        grid.base = space.grid().base;
        grid.cu_values = {r.cu};
        grid.core_clks_mhz = {r.core_clk_mhz};
        grid.mem_clks_mhz = {r.mem_clk_mhz};
        return model.evaluateGridRuntimes(*r.kernel, grid)[0];
    }
};

bool
verdictMatches(const obs::JsonValue *v, const scaling::ShapeVerdict &want)
{
    if (v == nullptr)
        return false;
    const auto *shape = v->find("shape");
    const auto *gain = v->find("total_gain");
    const auto *eff = v->find("efficiency");
    return shape != nullptr && shape->str == scaling::shapeName(want.shape) &&
           gain != nullptr && gain->number == want.total_gain &&
           eff != nullptr && eff->number == want.efficiency;
}

/** Tally of one phase's checked responses. */
struct CheckTally {
    size_t classify_compared = 0;
    size_t classify_agreed = 0;
};

/**
 * Check one response against its request.  Failed or refused frames
 * and torn (unparseable or misordered) frames fail the operation;
 * a wrong answer also fails the check.
 */
void
checkResponse(const MixRequest &req, uint64_t id, const std::string &line,
              const Reference &ref, CheckTally &tally, Outcome &out)
{
    const std::string label = "service_mix: request " + std::to_string(id);
    if (line.empty()) {
        out.record(false, false, label + " got no response");
        return;
    }
    obs::JsonValue frame;
    try {
        frame = obs::parseJson(line);
    } catch (const std::exception &) {
        out.record(false, true, label + " got a torn frame: " + line);
        return;
    }
    const auto *fid = frame.find("id");
    const auto *ok = frame.find("ok");
    if (fid == nullptr || static_cast<uint64_t>(fid->number) != id ||
        ok == nullptr || !ok->isBool()) {
        out.record(false, true, label + " got a misframed reply: " + line);
        return;
    }
    if (!ok->boolean) {
        out.record(false, false, label + " failed: " + line);
        return;
    }
    const obs::JsonValue *result = frame.find("result");
    bool good = result != nullptr;
    switch (req.kind) {
    case MixRequest::Kind::Predict: {
        const auto *rt = good ? result->find("runtime_s") : nullptr;
        good = rt != nullptr && rt->isNumber() &&
               rt->number == ref.runtime(req);
        break;
    }
    case MixRequest::Kind::Classify: {
        const auto it = ref.rows.find(req.kernel->name);
        const auto *cls = good ? result->find("class") : nullptr;
        const auto *range = good ? result->find("perf_range") : nullptr;
        const auto *cu90 = good ? result->find("cu90") : nullptr;
        good = it != ref.rows.end() && cls != nullptr && range != nullptr &&
               cu90 != nullptr &&
               cls->str == scaling::taxonomyClassName(it->second->cls) &&
               range->number == it->second->perf_range &&
               cu90->number == it->second->cu90 &&
               verdictMatches(result->find("freq"), it->second->freq) &&
               verdictMatches(result->find("mem"), it->second->mem) &&
               verdictMatches(result->find("cu"), it->second->cu);
        ++tally.classify_compared;
        tally.classify_agreed += good;
        break;
    }
    case MixRequest::Kind::Health: {
        const auto *status = good ? result->find("status") : nullptr;
        good = status != nullptr && status->str == "ok";
        break;
    }
    case MixRequest::Kind::Stats:
        good = good && result->find("counters") != nullptr;
        break;
    case MixRequest::Kind::Refresh: {
        const auto *kernels = good ? result->find("kernels") : nullptr;
        const auto *classes = good ? result->find("classes") : nullptr;
        good = kernels != nullptr &&
               kernels->number ==
                   static_cast<double>(ref.census.classifications.size()) &&
               classes != nullptr;
        const auto all = scaling::allTaxonomyClasses();
        for (size_t i = 0; good && i < all.size(); ++i) {
            const auto *n =
                classes->find(scaling::taxonomyClassName(all[i]));
            good = n != nullptr &&
                   n->number == static_cast<double>(ref.histogram[i]);
        }
        break;
    }
    }
    out.record(good, !good, label + " answered wrongly: " + line);
}

// ---------------------------------------------------------------------
// Sessions

/** The nominal phase's stream: the mix plus periodic refreshes. */
struct Schedule {
    std::vector<MixRequest> requests;
    std::vector<Planned> plan;
};

Schedule
nominalSchedule(uint64_t seed, double seconds)
{
    const size_t n = static_cast<size_t>(kNominalRps * seconds);
    std::vector<std::pair<double, MixRequest>> items;
    auto mix = generateMix(seed, n, 1);
    for (size_t i = 0; i < n; ++i)
        items.emplace_back(static_cast<double>(i) / kNominalRps,
                           std::move(mix[i]));
    const size_t refreshes =
        static_cast<size_t>(seconds / kRefreshPeriodS);
    for (size_t k = 1; k <= refreshes; ++k) {
        MixRequest r;
        r.kind = MixRequest::Kind::Refresh;
        r.frame = simpleFrame(n + k, "census", "{\"refresh\":true}");
        items.emplace_back(static_cast<double>(k) * kRefreshPeriodS -
                               0.5 / kNominalRps,
                           std::move(r));
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    Schedule s;
    for (auto &[due, req] : items)
        s.requests.push_back(std::move(req));
    for (size_t i = 0; i < items.size(); ++i)
        s.plan.push_back({items[i].first, &s.requests[i].frame});
    return s;
}

/** What a nominal-phase session measured. */
struct SessionResult {
    std::vector<double> latency_ms;        // non-refresh, untraced windows
    std::vector<double> traced_latency_ms; // non-refresh, traced windows
    std::vector<double> refresh_ms;        // round trips
    std::vector<double> lag_ms;
    long long journal_growth = 0;
    CheckTally tally;
};

/**
 * The nominal phase: the seeded mix at kNominalRps with a refresh
 * every kRefreshPeriodS, every response checked.  With a recorder,
 * alternate one-second windows are traced.
 */
SessionResult
nominalPhase(const Options &opts, const Daemon &d, const Reference &ref,
             double seconds, SpanRecorder *rec, Outcome &out)
{
    const Schedule sched = nominalSchedule(opts.seed, seconds);
    const size_t nconn =
        std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
    auto conns = openConnections(d, nconn);
    const auto traced = [&](double due_s) {
        return static_cast<long>(due_s) % 2 == 1;
    };
    const long long journal0 = fileSize(d.journal());
    if (rec != nullptr)
        rec->setEnabled(true);
    const PhaseResult phase =
        runOpenLoop(conns, sched.plan, rec, traced);
    if (rec != nullptr)
        rec->setEnabled(false);
    closeConnections(conns);

    SessionResult s;
    s.journal_growth = fileSize(d.journal()) - journal0;
    std::vector<OpenLoopRecord> untraced_recs, traced_recs, all_recs;
    for (size_t i = 0; i < sched.requests.size(); ++i) {
        const MixRequest &req = sched.requests[i];
        const OpenLoopRecord &r = phase.records[i];
        checkResponse(req, frameId(req.frame), phase.responses[i], ref,
                      s.tally, out);
        if (req.kind != MixRequest::Kind::Refresh) {
            all_recs.push_back(r);
            (rec != nullptr && traced(r.due_s) ? traced_recs
                                               : untraced_recs)
                .push_back(r);
        } else if (!std::isnan(r.done_s)) {
            s.refresh_ms.push_back((r.done_s - r.sent_s) * 1e3);
        }
    }
    s.latency_ms = summarizeOpenLoop(untraced_recs).latency_ms;
    s.traced_latency_ms = summarizeOpenLoop(traced_recs).latency_ms;
    s.lag_ms = summarizeOpenLoop(all_recs).lag_ms;
    return s;
}

/** A daemon counter, or NaN when the daemon did not report it. */
double
counterOr(const std::map<std::string, double> &counters,
          const std::string &name)
{
    const auto it = counters.find(name);
    return it == counters.end() ? std::nan("") : it->second;
}

/** Fill the service.* per-layer metrics from a session. */
void
sessionLayerMetrics(const std::map<std::string, double> &counters,
                    const SessionResult &s, double rtt_us, Outcome &out)
{
    out.metrics["service.rtt_us"] = rtt_us;
    out.metrics["service.refresh_ms"] = median(s.refresh_ms);
    out.metrics["service.request_p99_ms"] = percentile(s.latency_ms, 99);
    out.metrics["service.batch_size"] =
        counterOr(counters, "service.predict.coalesced") /
        counterOr(counters, "service.predict.batches");
    out.metrics["service.shed_ratio"] =
        counterOr(counters, "service.shed") /
        counterOr(counters, "service.requests");
    out.metrics["harness.journal_bytes_per_refresh"] =
        static_cast<double>(s.journal_growth) /
        static_cast<double>(s.refresh_ms.size());
    out.metrics["bench.generator_lag_p99_ms"] = percentile(s.lag_ms, 99);
    out.notes["service.refreshes"] = std::to_string(s.refresh_ms.size());
}

} // namespace

// ---------------------------------------------------------------------

std::vector<MixRequest>
generateMix(uint64_t seed, size_t n, uint64_t first_id)
{
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    std::mt19937_64 rng(seed);

    // Popularity is skewed so the coalescer has calls to merge: a
    // seeded permutation of the zoo, Zipf(1.1) over its ranks.
    std::vector<size_t> order(kernels.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t r = 0; r < order.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
        cdf.push_back(total);
    }
    const auto pick = [&] {
        const double u = unit(rng) * total;
        const size_t r = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return kernels[order[std::min(r, order.size() - 1)]];
    };

    std::vector<MixRequest> out(n);
    for (size_t i = 0; i < n; ++i) {
        MixRequest &r = out[i];
        const uint64_t id = first_id + i;
        const uint64_t roll = rng() % 1000;
        if (roll < 900) {
            // Off-grid points: CU counts off the multiples of 4, whole
            // MHz clocks off the grid's axis values.
            r.kind = MixRequest::Kind::Predict;
            r.kernel = pick();
            do {
                r.cu = 1 + static_cast<int>(rng() % 48);
            } while (r.cu % 4 == 0);
            do {
                r.core_clk_mhz = 200.0 + static_cast<double>(rng() % 801);
            } while (std::fmod(r.core_clk_mhz, 100.0) == 0.0);
            do {
                r.mem_clk_mhz = 150.0 + static_cast<double>(rng() % 1101);
            } while (std::fmod(r.mem_clk_mhz - 150.0, 137.5) == 0.0);
            r.frame = predictFrame(id, r);
        } else if (roll < 980) {
            r.kind = MixRequest::Kind::Classify;
            r.kernel = pick();
            r.frame = simpleFrame(
                id, "classify",
                "{\"kernel\":\"" + obs::jsonEscape(r.kernel->name) + "\"}");
        } else if (roll < 990) {
            r.kind = MixRequest::Kind::Health;
            r.frame = simpleFrame(id, "health", "");
        } else {
            r.kind = MixRequest::Kind::Stats;
            r.frame = simpleFrame(id, "stats", "");
        }
    }
    return out;
}

Outcome
runServiceMix(const Options &opts, SpanRecorder &rec)
{
    Outcome out;

    // Set-up: boot to census_loaded, several times; the last one
    // serves the run.  Peak memory is read at census_loaded too: what
    // serving adds on top varies by a sixth between identical runs,
    // with the malloc arenas the connection threads happen to use, so
    // the end-of-run reading is kept as a note only.
    std::vector<double> boots, rss_mb;
    Daemon d;
    for (int i = 0; i < kDaemonBoots; ++i) {
        d = bootDaemon(opts);
        boots.push_back(d.boot_s);
        rss_mb.push_back(childPeakRssMb(d.pid));
        if (i + 1 < kDaemonBoots && stopChild(d.pid, 10.0) != 0) {
            std::fprintf(stderr, "perfbench: gpuscaled did not drain\n");
            std::exit(1);
        }
    }
    out.metrics["setup_s"] = median(boots);
    out.metrics["peak_rss_mb"] = median(rss_mb);
    out.notes["probes"] = std::to_string(kDaemonBoots);

    const Reference ref;
    const double rtt_us = idleRttUs(d);
    nominalPhase(opts, d, ref, kWarmupS, nullptr, out);

    const CpuTimes steal0 = CpuTimes::now();
    const double cpu0 = childCpuS(d.pid);
    const uint64_t attempted0 = out.attempted;
    const SessionResult s = nominalPhase(
        opts, d, ref, opts.seconds, opts.trace ? &rec : nullptr, out);
    out.metrics["cpu_ms_per_op"] =
        (childCpuS(d.pid) - cpu0) * 1e3 /
        static_cast<double>(out.attempted - attempted0);
    out.metrics["bench.steal_ratio"] = CpuTimes::now().stealSince(steal0);
    out.metrics["op_p50_ms"] = median(s.latency_ms);
    out.metrics["bench.op_p90_ms"] = percentile(s.latency_ms, 90);
    out.notes["op.samples"] = std::to_string(s.latency_ms.size());
    out.notes["op.highest_supported_percentile"] =
        std::to_string(highestSupportedPercentile(s.latency_ms.size()));
    out.metrics["class_agreement"] =
        static_cast<double>(s.tally.classify_agreed) /
        static_cast<double>(s.tally.classify_compared);
    const auto counters = daemonCounters(d);
    sessionLayerMetrics(counters, s, rtt_us, out);
    // Over the daemon's life: the boot census misses, refreshes hit.
    const double hits = counterOr(counters, "sweep.cache.hits");
    out.metrics["harness.cache_hit_ratio"] =
        hits / (hits + counterOr(counters, "sweep.cache.misses"));
    if (opts.trace) {
        Outcome probes;
        measureProbes(opts, probes);
        out.metrics["workloads.registry_ms"] =
            probes.metrics["workloads.registry_ms"];
        out.metrics["bench.trace_overhead_ratio"] =
            median(s.traced_latency_ms) / median(s.latency_ms);
        out.notes["op.traced_samples"] =
            std::to_string(s.traced_latency_ms.size());
    }

    out.notes["peak_rss_mb.after_serving"] =
        std::to_string(childPeakRssMb(d.pid));
    if (stopChild(d.pid, 10.0) != 0) {
        std::fprintf(stderr, "perfbench: gpuscaled did not drain\n");
        std::exit(1);
    }
    return out;
}

void
serviceProbe(const Options &opts, double seconds, Outcome &out)
{
    Daemon d = bootDaemon(opts);
    const Reference ref;
    const double rtt_us = idleRttUs(d);
    // The probe's checks are not the workload's operations.
    Outcome scratch;
    const SessionResult s =
        nominalPhase(opts, d, ref, seconds, nullptr, scratch);
    sessionLayerMetrics(daemonCounters(d), s, rtt_us, out);
    stopChild(d.pid, 10.0);
}

} // namespace perfbench
