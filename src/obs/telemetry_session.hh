/**
 * @file
 * TelemetrySession: the telemetry options gpuscale and gpuscaled
 * share, parsed, started and shut down in one place.
 *
 * Options:
 *   --trace=FILE            Chrome trace-event / Perfetto span trace
 *   --metrics=FILE          metrics-registry JSON snapshot at exit
 *   --metrics-interval=MS   JSONL exporter period (falls back to the
 *                           GPUSCALE_METRICS_INTERVAL environment
 *                           variable when the flag is absent)
 *   --metrics-jsonl=FILE    exporter destination (metrics.jsonl)
 *   --exposition=FILE       Prometheus text exposition at exit
 *   --flight-recorder=BASE  crash ring at BASE.ring, black-box dump
 *                           at BASE.json on a crash or degraded exit
 *
 * start() spawns the exporter's flusher thread, so a process that
 * blocks signals for a drain watcher must block them first.
 */

#ifndef GPUSCALE_OBS_TELEMETRY_SESSION_HH
#define GPUSCALE_OBS_TELEMETRY_SESSION_HH

#include <string>

namespace gpuscale {
namespace obs {

/** Exit code of a run that completed with absorbed faults. */
constexpr int kExitDegraded = 4;

class TelemetrySession
{
  public:
    /** What parseFlag() made of one command-line argument. */
    enum class Flag {
        /** Not a telemetry option; the caller handles it. */
        NotMine,
        /** Consumed. */
        Parsed,
        /** A telemetry option with a bad value, reported on stderr. */
        Invalid,
    };

    /** Consume `arg` if it is one of the telemetry options. */
    Flag parseFlag(const std::string &arg);

    /** Start the trace, the flight recorder and the exporter. */
    void start();

    /**
     * Shut telemetry down in a fixed order: stop the exporter (its
     * final flush must see a live registry), write the metrics
     * snapshot and the exposition, close the trace, decide
     * degradation, and dump the black box last.
     *
     * @param rc the command's exit code; 0 means success.
     * @param print_table also print the metrics table to stdout
     *        after writing the --metrics snapshot.
     * @return rc, or kExitDegraded when rc is 0 but the run
     *         absorbed faults.
     */
    int finish(int rc, bool print_table);

  private:
    std::string trace_file_;
    std::string metrics_file_;
    std::string metrics_jsonl_ = "metrics.jsonl";
    std::string exposition_file_;
    std::string flight_recorder_base_;
    unsigned metrics_interval_ms_ = 0;
};

} // namespace obs
} // namespace gpuscale

#endif // GPUSCALE_OBS_TELEMETRY_SESSION_HH
