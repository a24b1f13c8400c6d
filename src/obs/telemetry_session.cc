/**
 * @file
 * TelemetrySession implementation.
 */

#include "telemetry_session.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/logging.hh"
#include "base/string_util.hh"
#include "obs/exporter.hh"
#include "obs/fault_telemetry.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gpuscale {
namespace obs {

TelemetrySession::Flag
TelemetrySession::parseFlag(const std::string &arg)
{
    const auto value = [&](const char *prefix, std::string *out) {
        const std::string p(prefix);
        if (arg.rfind(p, 0) != 0)
            return false;
        *out = arg.substr(p.size());
        return true;
    };

    std::string interval;
    if (value("--trace=", &trace_file_) ||
        value("--metrics=", &metrics_file_) ||
        value("--metrics-jsonl=", &metrics_jsonl_) ||
        value("--exposition=", &exposition_file_) ||
        value("--flight-recorder=", &flight_recorder_base_))
    {
        return Flag::Parsed;
    }
    if (!value("--metrics-interval=", &interval))
        return Flag::NotMine;

    // from_chars, not atoi: a mistyped interval must be a usage
    // error, not a silently disabled exporter.
    const auto parsed = parseDouble(interval);
    if (!parsed || *parsed <= 0) {
        std::fprintf(stderr,
                     "--metrics-interval: '%s' is not a positive "
                     "millisecond count\n",
                     interval.c_str());
        return Flag::Invalid;
    }
    metrics_interval_ms_ = static_cast<unsigned>(*parsed);
    return Flag::Parsed;
}

void
TelemetrySession::start()
{
    if (metrics_interval_ms_ == 0) {
        // The environment can turn the exporter on for runs whose
        // command line a wrapper controls.
        if (const char *env = std::getenv("GPUSCALE_METRICS_INTERVAL")) {
            const auto parsed = parseDouble(env);
            if (parsed && *parsed > 0)
                metrics_interval_ms_ = static_cast<unsigned>(*parsed);
            else
                warn("ignoring GPUSCALE_METRICS_INTERVAL='%s'", env);
        }
    }

    if (!trace_file_.empty())
        TraceSession::start(trace_file_);
    if (!flight_recorder_base_.empty() &&
        FlightRecorder::start(flight_recorder_base_ + ".ring"))
    {
        FlightRecorder::installCrashDump(flight_recorder_base_ + ".json");
    }
    if (metrics_interval_ms_ > 0)
        MetricsExporter::start(metrics_jsonl_, metrics_interval_ms_);
}

int
TelemetrySession::finish(int rc, bool print_table)
{
    if (MetricsExporter::active()) {
        MetricsExporter::stop();
        inform("wrote %s", metrics_jsonl_.c_str());
    }
    if (!metrics_file_.empty()) {
        // gpuscale-lint: allow(fault-coverage): telemetry artifact
        // written after the run finished; a bad path is a fatal
        // usage error.
        std::ofstream os(metrics_file_);
        fatal_if(!os, "cannot write metrics file %s",
                 metrics_file_.c_str());
        os << Registry::instance().snapshotJson() << '\n';
        if (print_table) {
            std::printf("\n%s",
                        Registry::instance().snapshotTable()
                            .render().c_str());
        }
        inform("wrote %s", metrics_file_.c_str());
    }
    if (!exposition_file_.empty()) {
        // gpuscale-lint: allow(fault-coverage): as above.
        std::ofstream os(exposition_file_);
        fatal_if(!os, "cannot write exposition file %s",
                 exposition_file_.c_str());
        Registry::instance().writeExposition(os);
        inform("wrote %s", exposition_file_.c_str());
    }
    if (!trace_file_.empty()) {
        const size_t spans = TraceSession::stop();
        inform("wrote %s (%zu spans)", trace_file_.c_str(), spans);
    }
    if (rc == 0 && degradationCount() > 0) {
        warn("run completed with %llu degradation(s); exiting %d",
             static_cast<unsigned long long>(degradationCount()),
             kExitDegraded);
        rc = kExitDegraded;
    }
    if (FlightRecorder::active()) {
        if (rc == kExitDegraded) {
            // The black box explains *what* degraded, not just that
            // something did: dump before the recorder winds down.
            const std::string dump_path = flight_recorder_base_ + ".json";
            FlightRecorder::dump(dump_path, "degraded-exit-4");
            inform("wrote %s", dump_path.c_str());
        }
        // The ring file stays behind for post-mortem reads.
        FlightRecorder::stop();
    }
    return rc;
}

} // namespace obs
} // namespace gpuscale
