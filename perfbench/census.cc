/**
 * @file
 * census_cold and sparse_census: closed loops with one caller, each
 * iteration one complete census with its writes, checked against the
 * committed outputs.
 */
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hh"
#include "gpu/analytic_model.hh"
#include "harness/experiment.hh"
#include "harness/sparse.hh"
#include "harness/sweep_cache.hh"
#include "obs/metrics.hh"
#include "obs/run_manifest.hh"
#include "scaling/report.hh"
#include "scaling/suite_analysis.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using namespace gpuscale;
using Scope = SpanRecorder::Scope;

/** The CI gate on sparse-vs-dense class agreement (docs/prediction.md). */
constexpr double kMinSparseAgreement = 0.95;
constexpr int kProbes = 9;

/** Kernel -> class column of a classifications CSV. */
std::map<std::string, std::string>
classColumn(const std::string &csv)
{
    std::map<std::string, std::string> out;
    std::istringstream is(csv);
    std::string line;
    std::getline(is, line); // header
    while (std::getline(is, line)) {
        const size_t a = line.find(',');
        const size_t b = line.find(',', a + 1);
        if (a != std::string::npos && b != std::string::npos)
            out[line.substr(0, a)] = line.substr(a + 1, b - a - 1);
    }
    return out;
}

/** Cache hit ratio over a counter delta; NaN when nothing was looked up. */
struct CacheCounters {
    uint64_t hits = 0, misses = 0;

    static CacheCounters
    now()
    {
        auto &reg = obs::Registry::instance();
        return {reg.counter("sweep.cache.hits").value(),
                reg.counter("sweep.cache.misses").value()};
    }

    double
    ratioSince(const CacheCounters &before) const
    {
        const double h = static_cast<double>(hits - before.hits);
        const double m = static_cast<double>(misses - before.misses);
        return h + m > 0 ? h / (h + m) : std::nan("");
    }
};

/** The census report, its CSV and its manifest, as the CLI writes them. */
void
writeCensusOutputs(const harness::CensusResult &census,
                   const gpu::PerfModel &model, const std::string &dir,
                   const obs::ManifestTimer &timer, SpanRecorder &rec)
{
    {
        Scope s(rec, "scaling", "report");
        std::ofstream txt(dir + "/census.txt");
        txt << scaling::classHistogramTable(census.classifications)
                   .render()
            << "\n"
            << scaling::suiteBreakdownTable(
                   scaling::analyzeSuites(census.classifications, 44), 44)
                   .render();
        std::ofstream csv(dir + "/classifications.csv");
        scaling::writeClassificationsCsv(csv, census.classifications);
    }
    obs::RunManifest manifest;
    {
        Scope s(rec, "harness", "censusManifest");
        manifest = harness::censusManifest(census, model);
    }
    Scope s(rec, "obs", "writeManifest");
    manifest.extra["report"] = "classifications.csv";
    timer.finalize(manifest);
    obs::writeManifest(manifest, dir + "/classifications.manifest.json");
}

/**
 * One census as `gpuscale census` runs it after start-up.  Traced, the
 * runCensus() call is made as the three public calls it consists of,
 * so each gets its own span.
 */
void
censusOnce(const gpu::AnalyticModel &model,
           const scaling::ConfigSpace &space, const std::string &dir,
           SpanRecorder &rec)
{
    const obs::ManifestTimer timer;
    {
        Scope s(rec, "harness", "SweepCache::clear");
        harness::SweepCache::instance().clear();
    }
    if (!rec.enabled()) {
        writeCensusOutputs(harness::runCensus(model, space), model, dir,
                           timer, rec);
        return;
    }
    harness::CensusResult census{space, {}, {}};
    std::vector<const gpu::KernelDesc *> kernels;
    {
        Scope s(rec, "workloads", "allKernels");
        kernels = workloads::WorkloadRegistry::instance().allKernels();
    }
    {
        Scope s(rec, "harness", "sweepKernels");
        census.surfaces =
            harness::sweepKernels(model, kernels, census.space);
    }
    {
        Scope s(rec, "scaling", "classifyAll");
        census.classifications = scaling::classifyAll(census.surfaces);
    }
    writeCensusOutputs(census, model, dir, timer, rec);
}

void
sparseOnce(const gpu::AnalyticModel &model,
           const scaling::ConfigSpace &space,
           const harness::SparseCensusOptions &options,
           const std::string &dir, SpanRecorder &rec,
           std::optional<harness::SparseCensusResult> &result)
{
    const obs::ManifestTimer timer;
    {
        Scope s(rec, "harness", "SweepCache::clear");
        harness::SweepCache::instance().clear();
    }
    {
        Scope s(rec, "harness", "runSparseCensus");
        result = harness::runSparseCensus(model, space, options);
    }
    {
        Scope s(rec, "scaling", "writeSparseCensusCsv");
        std::ofstream csv(dir + "/classifications.csv");
        scaling::writeSparseCensusCsv(csv, result->reconstructions);
    }
    obs::RunManifest manifest;
    {
        Scope s(rec, "harness", "sparseCensusManifest");
        manifest = harness::sparseCensusManifest(*result, model);
    }
    Scope s(rec, "obs", "writeManifest");
    manifest.extra["report"] = "classifications.csv";
    timer.finalize(manifest);
    obs::writeManifest(manifest, dir + "/classifications.manifest.json");
}

/**
 * Run `op` in a closed loop for the run's seconds.  An untraced run
 * times every iteration untraced; a traced run alternates traced and
 * untraced iterations so the two medians share the machine state.
 * `check` is called after each iteration, outside the timing.
 */
template <typename Op, typename Check>
void
closedLoop(const Options &opts, SpanRecorder &rec, Outcome &out, Op op,
           Check check)
{
    // One untimed iteration first: the worker pool and the page cache
    // are set up once per process, not once per census.
    op();
    check();

    std::vector<double> untraced_ms, traced_ms;
    double untraced_cpu_s = 0.0;
    const CpuTimes cpu0 = CpuTimes::now();
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const double end = nowS() + budget;
    for (size_t i = 0; nowS() < end; ++i) {
        const bool traced = opts.trace && i % 2 == 1;
        rec.setEnabled(traced);
        if (traced)
            rec.beginOp();
        const double c0 = selfCpuS();
        const double t0 = nowS();
        {
            Scope s(rec, "bench", "op");
            op();
        }
        const double ms = (nowS() - t0) * 1e3;
        rec.setEnabled(false);
        if (traced) {
            traced_ms.push_back(ms);
        } else {
            untraced_ms.push_back(ms);
            untraced_cpu_s += selfCpuS() - c0;
        }
        check();
    }

    const double p50 = median(untraced_ms);
    out.metrics["op_p50_ms"] = p50;
    out.metrics["bench.op_p90_ms"] = percentile(untraced_ms, 90);
    out.metrics["cpu_ms_per_op"] =
        untraced_cpu_s * 1e3 / static_cast<double>(untraced_ms.size());
    out.metrics["bench.steal_ratio"] = CpuTimes::now().stealSince(cpu0);
    out.notes["op.samples"] = std::to_string(untraced_ms.size());
    out.notes["op.highest_supported_percentile"] =
        std::to_string(highestSupportedPercentile(untraced_ms.size()));
    if (opts.trace) {
        out.metrics["bench.trace_overhead_ratio"] =
            median(traced_ms) / p50;
        out.notes["op.traced_samples"] = std::to_string(traced_ms.size());
    }
}

} // namespace

harness::SparseCensusOptions
sparseOptions(uint64_t seed)
{
    harness::SparseCensusOptions options;
    options.samples = 64;
    options.sampler = scaling::SamplerKind::Lhs;
    options.seed = seed;
    return options;
}

/**
 * Set-up time and peak memory, each the median over fresh child
 * processes that set up and run one operation, as a CLI invocation
 * does.  The registry is a process-wide singleton, so only a new
 * process pays for it again; and a process that has run hundreds of
 * censuses holds more memory than one census needs, by an amount that
 * varies from run to run with the allocator's per-thread arenas.
 * Also records workloads.registry_ms, the median first allKernels().
 */
void
measureProbes(const Options &opts, Outcome &out)
{
    const std::string dir = makeScratchDir(opts, "probe");
    std::vector<double> setup_s, registry_ms, rss_mb;
    for (int i = 0; i < kProbes; ++i) {
        std::string text;
        const int rc = runChild({opts.bin_dir + "/perfbench", "--probe",
                                 opts.workload, std::to_string(opts.seed),
                                 dir},
                                &text, 60.0);
        double s = 0, r = 0, m = 0;
        if (rc != 0 ||
            std::sscanf(text.c_str(),
                        "setup_s=%lf registry_ms=%lf peak_rss_mb=%lf", &s,
                        &r, &m) != 3)
        {
            std::fprintf(stderr, "perfbench: probe process failed (%d)\n",
                         rc);
            std::exit(1);
        }
        setup_s.push_back(s);
        registry_ms.push_back(r);
        rss_mb.push_back(m);
    }
    out.metrics["setup_s"] = median(setup_s);
    out.metrics["peak_rss_mb"] = median(rss_mb);
    out.metrics["workloads.registry_ms"] = median(registry_ms);
    out.notes["probes"] = std::to_string(kProbes);
}

int
processProbe(const std::string &workload, uint64_t seed,
             const std::string &dir)
{
    const double t0 = nowS();
    const auto kernels =
        workloads::WorkloadRegistry::instance().allKernels();
    const double t1 = nowS();
    const auto space = scaling::ConfigSpace::paperGrid();
    const gpu::AnalyticModel model;
    const double t2 = nowS();
    if (kernels.empty())
        return 1;

    SpanRecorder off;
    if (workload == "service_mix") {
        // The daemon's set-up is timed by booting it; this probe only
        // times the registry, for workloads.registry_ms.
    } else if (workload == "sparse_census") {
        std::optional<harness::SparseCensusResult> result;
        sparseOnce(model, space, sparseOptions(seed), dir, off, result);
    } else {
        censusOnce(model, space, dir, off);
    }
    std::printf("setup_s=%.9g registry_ms=%.9g peak_rss_mb=%.9g\n",
                t2 - t0, (t1 - t0) * 1e3, selfPeakRssMb());
    return 0;
}

Outcome
runCensusCold(const Options &opts, SpanRecorder &rec)
{
    Outcome out;
    measureProbes(opts, out);

    const std::string golden = readFile("classifications.csv");
    if (golden.empty()) {
        std::fprintf(stderr,
                     "perfbench: classifications.csv not found; run "
                     "from the repository root\n");
        std::exit(1);
    }
    const auto golden_classes = classColumn(golden);

    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const std::string dir = makeScratchDir(opts, "census_cold");
    size_t compared = 0, agreed = 0;
    const CacheCounters before = CacheCounters::now();

    closedLoop(
        opts, rec, out, [&] { censusOnce(model, space, dir, rec); },
        [&] {
            const std::string csv =
                readFile(dir + "/classifications.csv");
            const std::string diff = firstDifference(csv, golden);
            out.record(diff.empty(), !diff.empty(),
                       "census_cold: classifications.csv differs from "
                       "the committed file at " + diff);
            const auto got = classColumn(csv);
            for (const auto &[kernel, cls] : golden_classes) {
                const auto it = got.find(kernel);
                ++compared;
                agreed += it != got.end() && it->second == cls;
            }
        });

    out.metrics["class_agreement"] =
        static_cast<double>(agreed) / static_cast<double>(compared);
    out.metrics["harness.cache_hit_ratio"] =
        CacheCounters::now().ratioSince(before);
    if (opts.trace) {
        out.metrics["scaling.classify_share"] =
            rec.medianMs("classifyAll") / out.metrics["op_p50_ms"];
    }
    return out;
}

Outcome
runSparseCensus(const Options &opts, SpanRecorder &rec)
{
    Outcome out;
    measureProbes(opts, out);

    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    // The dense reference is computed once, before timing, and is not
    // part of set-up: users of the sparse census never run it.
    const auto dense = harness::runCensus(model, space);

    std::string reference;
    if (opts.seed == 0) {
        reference = readFile("tests/golden/sparse_census.csv");
        if (reference.empty()) {
            std::fprintf(stderr,
                         "perfbench: tests/golden/sparse_census.csv not "
                         "found; run from the repository root\n");
            std::exit(1);
        }
    }

    const harness::SparseCensusOptions options = sparseOptions(opts.seed);
    const std::string dir = makeScratchDir(opts, "sparse_census");
    std::optional<harness::SparseCensusResult> result;
    double agreement = 0.0;
    const CacheCounters before = CacheCounters::now();

    closedLoop(
        opts, rec, out,
        [&] { sparseOnce(model, space, options, dir, rec, result); },
        [&] {
            // At seed 0 the output must be the committed golden; at
            // any other seed it must at least repeat exactly from
            // iteration to iteration.
            const std::string csv =
                readFile(dir + "/classifications.csv");
            if (reference.empty())
                reference = csv;
            const std::string diff = firstDifference(csv, reference);
            agreement =
                harness::sparseAgreement(*result, dense.classifications);
            const bool agrees = agreement >= kMinSparseAgreement;
            std::string what = "sparse_census: ";
            if (!diff.empty()) {
                what += (opts.seed == 0
                             ? "classifications.csv differs from "
                               "tests/golden/sparse_census.csv at "
                             : "classifications.csv changed between "
                               "iterations at ") +
                        diff;
            } else {
                what += "class agreement " + std::to_string(agreement) +
                        " below " + std::to_string(kMinSparseAgreement);
            }
            out.record(diff.empty() && agrees, true, what);
        });

    out.metrics["class_agreement"] = agreement;
    out.metrics["harness.cache_hit_ratio"] =
        CacheCounters::now().ratioSince(before);
    return out;
}

} // namespace perfbench
