/**
 * @file
 * gpuscaled core: a resident census/prediction service over a Unix
 * socket.
 *
 * The service loads the kernel zoo and the configuration grid once
 * (journaled through the checkpoint log, so a killed daemon resumes
 * bitwise-identically), then answers newline-delimited JSON requests
 * (protocol.hh): `classify`, `predict`, `census`, `health`, `stats`.
 *
 * Robustness model (docs/service.md):
 *  - every request runs under a deadline; long work (census refresh,
 *    batched predictions) is cancelled cooperatively through
 *    harness::CancelToken when the deadline passes;
 *  - admission control (admission.hh) bounds in-flight work and sheds
 *    overload with typed RETRY_AFTER frames — the service never
 *    queues unboundedly and never hangs a client;
 *  - concurrent predict calls coalesce into batched grid evaluations
 *    (batcher.hh);
 *  - SIGTERM/SIGINT triggers a graceful drain: stop accepting,
 *    nudge idle connections, let in-flight requests finish or
 *    deadline out, stop the batcher, sync the journal, remove the
 *    socket and pidfile.
 *
 * Fault probes cover the client-visible failure matrix: GPUSCALE_FAULTS
 * plans can fire on `service.start`, `service.accept`,
 * `service.conn.read`, `service.conn.write`, `service.admit`, and
 * `service.journal.sync`.
 */

#ifndef GPUSCALE_SERVICE_SERVER_HH
#define GPUSCALE_SERVICE_SERVER_HH

#include <atomic>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "gpu/perf_model.hh"
#include "harness/cancel.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "service/admission.hh"
#include "service/batcher.hh"
#include "service/protocol.hh"

namespace gpuscale {
namespace service {

/** Daemon configuration. */
struct ServiceOptions {
    std::string socket_path = "gpuscaled.sock";
    /** Empty disables the pidfile (and its staleness check). */
    std::string pidfile;
    /** Empty disables the checkpoint journal. */
    std::string checkpoint_dir;
    /** Use the coarse 3x3x3 test grid instead of the paper grid. */
    bool test_grid = false;
    /** Global admission bound on in-flight requests. */
    size_t max_inflight = 64;
    /** Per-client share of the admission bound. */
    size_t client_quota = 16;
    /** Deadline for requests that do not carry one. */
    double default_deadline_ms = 5000.0;
    /** Budget for drain-time I/O (final journal sync). */
    double drain_deadline_ms = 2000.0;
};

class Service
{
  public:
    /** The model must outlive the service. */
    Service(const ServiceOptions &opts, const gpu::PerfModel &model);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Claim the pidfile and bind the listening socket.  A live
     * pidfile (its pid still runs) or an unbindable/live socket path
     * fails with a warn(); the daemon maps that to exit 5.  A stale
     * pidfile or dead socket file is removed and claimed.
     */
    bool start();

    /**
     * Run the (journaled) census that warms the service.  Returns
     * false when a drain cancelled it mid-flight — the journal stays
     * resumable either way, exactly like a killed run.
     */
    bool loadCensus();

    /**
     * Block SIGTERM/SIGINT and watch for them on a background
     * thread; either triggers requestDrain().  Call before serve(),
     * from the main thread, before other threads inherit the mask.
     */
    void installSignalDrain();

    /**
     * Accept and serve connections until a drain request, then run
     * the drain to completion (see file comment) and return.
     */
    void serve();

    /** Start a graceful drain; idempotent, safe from any thread. */
    void requestDrain();

    /** True once a drain has been requested. */
    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** Census-journal records replayed when the journal opened. */
    size_t journalReplayed() const { return journal_replayed_; }

    const ServiceOptions &options() const { return opts_; }

  private:
    struct Connection;

    void connectionLoop(Connection *conn);
    std::string processLine(const std::string &line,
                            const std::string &default_client);
    bool writeFrame(int fd, const std::string &frame,
                    std::chrono::steady_clock::time_point deadline);
    void reapConnections(bool join_all);
    void stopSignalWatcher();
    void syncJournal();

    std::string handleHealth(const Request &req);
    std::string handleStats(const Request &req);
    std::string handleClassify(const Request &req);
    std::string handlePredict(
        const Request &req,
        std::chrono::steady_clock::time_point deadline);
    std::string handleCensus(
        const Request &req,
        std::chrono::steady_clock::time_point deadline);

    const ServiceOptions opts_;
    const gpu::PerfModel &model_;
    gpu::ConfigGrid space_;

    std::optional<harness::CensusJournal> journal_;
    size_t journal_replayed_ = 0;

    AdmissionControl admission_;
    std::optional<PredictBatcher> batcher_;

    int listen_fd_ = -1;
    int drain_pipe_[2] = {-1, -1};
    bool pidfile_claimed_ = false;

    std::atomic<bool> draining_{false};
    /** Cancelled on drain; loadCensus() sweeps under it. */
    harness::CancelToken drain_token_;

    // gpuscale-lint: allow(concurrency): guards the census result the
    // classify/census handlers read while a refresh swaps it.
    std::mutex census_mutex_;
    /** Classification rows only; surfaces stay in the batcher path. */
    std::vector<scaling::KernelClassification>
        census_;                             // guarded_by(census_mutex_)
    bool census_loaded_ = false;             // guarded_by(census_mutex_)
    std::map<std::string, size_t> class_index_; // guarded_by(census_mutex_)

    // gpuscale-lint: allow(concurrency): guards the single-flight
    // census-refresh slot and its cancel token, which requestDrain()
    // fires from another thread.
    std::mutex refresh_mutex_;
    bool refresh_active_ = false;             // guarded_by(refresh_mutex_)
    harness::CancelToken *refresh_token_ = nullptr; // guarded_by(refresh_mutex_)

    // gpuscale-lint: allow(concurrency): tracks one thread per live
    // connection; the harness pool stays free for the model work the
    // connections dispatch.
    std::mutex conn_mutex_;
    std::list<std::unique_ptr<Connection>> conns_; // guarded_by(conn_mutex_)
    std::atomic<uint64_t> next_conn_id_{0};

    // gpuscale-lint: allow(concurrency): the sigtimedwait watcher
    // installSignalDrain() starts.
    std::thread signal_watcher_;
    std::atomic<bool> watcher_stop_{false};
};

} // namespace service
} // namespace gpuscale

#endif // GPUSCALE_SERVICE_SERVER_HH
