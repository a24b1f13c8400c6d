/**
 * @file
 * perfbench: runs one workload of the repo benchmark (see README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * Runs one workload, writes a result file (machine stanza, every
 * metric, null where not measured) under the output directory, and
 * prints one JSON line last on stdout: {"correct", "attempted",
 * "failed", "metrics"}, with the end-to-end metrics untraced and the
 * per-layer metrics traced.  Run it from the repository root; it
 * reads the committed census outputs from there.
 */
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "obs/json.hh"

namespace perfbench {

namespace {

struct MetricDef {
    const char *name;
    const char *unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"op_p50_ms", "ms"},
    {"cpu_ms_per_op", "ms"},    {"success_ratio", "ratio"},
    {"class_agreement", "ratio"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workloads.registry_ms", "ms"},
    {"gpu.prepare_ms", "ms"},
    {"gpu.kernel_ms", "ms"},
    {"gpu.kernel_ns_per_point", "ns"},
    {"gpu.small_grid_us", "us"},
    {"harness.key_us", "us"},
    {"harness.sweep_1t_ms", "ms"},
    {"harness.overhead_ratio", "ratio"},
    {"harness.cache_hit_ms", "ms"},
    {"harness.cache_hit_ratio", "ratio"},
    {"harness.pool_ms", "ms"},
    {"harness.pool_speedup", "ratio"},
    {"harness.pool_imbalance", "ratio"},
    {"harness.journal_write_ms", "ms"},
    {"harness.journal_bytes_per_refresh", "bytes"},
    {"harness.journal_overhead_ratio", "ratio"},
    {"harness.journal_overhead_ci_lo", "ratio"},
    {"harness.journal_overhead_ci_hi", "ratio"},
    {"harness.sparse_kernel_ms", "ms"},
    {"harness.sparse_kernel_p90_ms", "ms"},
    {"scaling.classify_ms", "ms"},
    {"scaling.classify_share", "ratio"},
    {"scaling.sparse_plan_us", "us"},
    {"scaling.report_ms", "ms"},
    {"obs.manifest_ms", "ms"},
    {"obs.json_parse_us", "us"},
    {"obs.telemetry_overhead_ratio", "ratio"},
    {"obs.telemetry_overhead_ci_lo", "ratio"},
    {"obs.telemetry_overhead_ci_hi", "ratio"},
    {"service.parse_us", "us"},
    {"service.render_us", "us"},
    {"service.admit_us", "us"},
    {"service.batcher_us", "us"},
    {"service.rtt_us", "us"},
    {"service.refresh_ms", "ms"},
    {"service.request_p99_ms", "ms"},
    {"service.batch_size", "count"},
    {"service.shed_ratio", "ratio"},
    {"bench.op_p90_ms", "ms"},
    {"bench.steal_ratio", "ratio"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"layer.bench.self_ms", "ms"},
    {"layer.workloads.self_ms", "ms"},
    {"layer.gpu.self_ms", "ms"},
    {"layer.harness.self_ms", "ms"},
    {"layer.scaling.self_ms", "ms"},
    {"layer.obs.self_ms", "ms"},
    {"layer.service.self_ms", "ms"},
};

const char *kWorkloads[] = {"census_cold", "service_mix", "sparse_census"};

/** The modules under src/, plus the benchmark's own code. */
const std::vector<std::string> kLayers = {
    "bench", "workloads", "gpu", "harness", "scaling", "obs", "service"};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload census_cold|service_mix|"
                 "sparse_census --seed N --seconds S --trace 0|1\n"
                 "                 [--out-dir DIR]\n");
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n",
                         arg.c_str());
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            opts.trace = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else if (arg == "--out-dir") {
            opts.out_dir = value;
        } else {
            std::fprintf(stderr, "perfbench: unknown option %s\n",
                         arg.c_str());
            return false;
        }
        if (end != nullptr && *end != '\0') {
            std::fprintf(stderr, "perfbench: bad value for %s: %s\n",
                         arg.c_str(), value.c_str());
            return false;
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known |= opts.workload == w;
    return known && opts.seconds > 0;
}

void
writeValue(gpuscale::obs::JsonWriter &w, double v)
{
    if (std::isfinite(v))
        w.value(v);
    else
        w.valueNull();
}

/** A metric's value, or NaN (null) when the run did not measure it. */
double
lookup(const Outcome &out, const std::string &name)
{
    const auto it = out.metrics.find(name);
    return it == out.metrics.end() ? std::nan("") : it->second;
}

void
writeMetrics(gpuscale::obs::JsonWriter &w, const Outcome &out,
             const std::vector<MetricDef> &defs)
{
    w.beginObject();
    for (const auto &d : defs) {
        w.key(d.name).beginObject();
        w.key("value");
        writeValue(w, lookup(out, d.name));
        w.key("unit").value(d.unit);
        w.endObject();
    }
    w.endObject();
}

/** The result file: everything the run knows, nulls included. */
void
writeResultFile(const Options &opts, const Outcome &out,
                const std::string &path)
{
    std::ofstream os(path);
    gpuscale::obs::JsonWriter w(os);
    w.beginObject();
    w.key("workload").value(opts.workload);
    w.key("seed").value(opts.seed);
    w.key("seconds").value(opts.seconds);
    w.key("trace").value(opts.trace);
    w.key("machine");
    writeMachineStanza(w);
    w.key("correct").value(out.correct);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("end_to_end");
    writeMetrics(w, out, kEndToEnd);
    w.key("per_layer");
    writeMetrics(w, out, kPerLayer);
    w.key("notes").beginObject();
    for (const auto &[k, v] : out.notes)
        w.key(k).value(v);
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace

void
Outcome::record(bool ok, bool check_failed, const std::string &detail)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (check_failed)
        correct = false;
    if (failed <= 5)
        std::fprintf(stderr, "perfbench: %s\n", detail.c_str());
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;

    if (argc == 5 && std::string(argv[1]) == "--probe") {
        return processProbe(argv[2], std::strtoull(argv[3], nullptr, 10),
                            argv[4]);
    }

    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 3;
    }
    std::error_code ec;
    opts.bin_dir =
        std::filesystem::read_symlink("/proc/self/exe", ec).parent_path();
    std::filesystem::create_directories(opts.out_dir, ec);
    if (opts.bin_dir.empty() || ec) {
        std::fprintf(stderr, "perfbench: cannot set up %s\n",
                     opts.out_dir.c_str());
        return 1;
    }

    SpanRecorder spans;
    Outcome out;
    if (opts.workload == "census_cold")
        out = runCensusCold(opts, spans);
    else if (opts.workload == "sparse_census")
        out = runSparseCensus(opts, spans);
    else
        out = runServiceMix(opts, spans);
    out.metrics["success_ratio"] =
        1.0 - static_cast<double>(out.failed) /
                  static_cast<double>(std::max<uint64_t>(1, out.attempted));

    if (opts.trace) {
        for (const auto &[layer, ms] : spans.layerSelfMs(kLayers))
            out.metrics["layer." + layer + ".self_ms"] = ms;
        runLayerProbes(opts, out);
        if (opts.workload != "service_mix")
            serviceProbe(opts, 1.5, out);
        // classify_share is against the workload's own census: on
        // census_cold the traced classifyAll span (set by the
        // workload), elsewhere the probe's classifyAll over the
        // sparse census or the service's refresh round trip.
        if (!out.metrics.count("scaling.classify_share")) {
            const double denom = opts.workload == "service_mix"
                                     ? out.metrics["service.refresh_ms"]
                                     : out.metrics["op_p50_ms"];
            out.metrics["scaling.classify_share"] =
                out.metrics["scaling.classify_ms"] / denom;
        }
    }

    const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0") + "-" +
                             std::to_string(getpid());
    writeResultFile(opts, out, stem + ".json");
    if (opts.trace)
        spans.write(stem + ".spans.json");
    removeScratchDirs();

    std::ostringstream line;
    gpuscale::obs::JsonWriter w(line);
    w.beginObject();
    w.key("correct").value(out.correct);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("metrics");
    writeMetrics(w, out, opts.trace ? kPerLayer : kEndToEnd);
    w.endObject();
    std::printf("%s\n", line.str().c_str());
    return 0;
}
