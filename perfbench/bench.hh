/**
 * @file
 * Shared declarations of the repo benchmark (see README.md).
 *
 * The benchmark drives three workloads against the gpuscale library
 * and its daemon.  Each file owns one concern:
 *  - census.cc    census_cold and sparse_census, and the set-up probe;
 *  - service.cc   service_mix: the daemon child and the open loop;
 *  - layers.cc    the per-layer probes of the traced run;
 *  - platform.cc  child processes, files, memory, the machine stanza;
 *  - main.cc      arguments, metric tables and the result line.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpu/kernel_desc.hh"
#include "harness/sparse.hh"
#include "obs/json.hh"
#include "spans.hh"

namespace perfbench {

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Result files and scratch directories go under here. */
    std::string out_dir = ".bench_out";
    /** Directory holding the perfbench and gpuscaled binaries. */
    std::string bin_dir;
};

/** What one run found.  A NaN metric is written as null. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False once any output failed its check. */
    bool correct = true;
    std::map<std::string, double> metrics;
    /** Extra facts for the result file (sample counts, percentiles). */
    std::map<std::string, std::string> notes;

    /**
     * Count one attempted operation.  A failed one is counted; when
     * `check_failed` the program's output was wrong, not just refused.
     * The first few failures are described on stderr.
     */
    void record(bool ok, bool check_failed, const std::string &detail);
};

// census.cc
/** The sparse census sparse_census runs: K=64, LHS, the given seed. */
gpuscale::harness::SparseCensusOptions sparseOptions(uint64_t seed);
/**
 * Fill setup_s, peak_rss_mb and workloads.registry_ms from fresh
 * child processes that each set up and run one operation (see
 * processProbe()).
 */
void measureProbes(const Options &opts, Outcome &out);
Outcome runCensusCold(const Options &opts, SpanRecorder &spans);
Outcome runSparseCensus(const Options &opts, SpanRecorder &spans);
/**
 * Child mode: time a workload's set-up, run one census operation into
 * `dir` (none for service_mix), and print the set-up time, the
 * registry time and peak memory on stdout.
 */
int processProbe(const std::string &workload, uint64_t seed,
                 const std::string &dir);

// service.cc
Outcome runServiceMix(const Options &opts, SpanRecorder &spans);
/**
 * A short nominal-rate daemon session that fills the
 * service.* per-layer metrics for the census workloads' traced runs.
 */
void serviceProbe(const Options &opts, double seconds, Outcome &out);

/** One generated service_mix request. */
struct MixRequest {
    enum class Kind { Predict, Classify, Health, Stats, Refresh };
    Kind kind = Kind::Predict;
    const gpuscale::gpu::KernelDesc *kernel = nullptr;
    int cu = 0;
    double core_clk_mhz = 0.0;
    double mem_clk_mhz = 0.0;
    std::string frame;
};

/**
 * The service_mix request stream for a seed: `n` requests with ids
 * starting at `first_id`, without census refreshes (the schedule
 * inserts those).
 */
std::vector<MixRequest> generateMix(uint64_t seed, size_t n,
                                    uint64_t first_id);

// layers.cc
/**
 * Time the public functions of every layer, from outside, and put
 * the per-layer metrics that do not depend on the workload into
 * `out`.
 */
void runLayerProbes(const Options &opts, Outcome &out);

// platform.cc
/** Seconds on the steady clock. */
double nowS();
/** Peak resident set of this process, in MB. */
double selfPeakRssMb();
/** CPU time this process has used, all threads, in seconds. */
double selfCpuS();
/** CPU time a live child has used, in seconds; NaN if unknown. */
double childCpuS(int pid);
/** Machine-wide CPU time counters, for the hypervisor steal share. */
struct CpuTimes {
    double steal = 0.0;
    double total = 0.0;

    static CpuTimes now();
    /** Share of all CPU time since `before` that was stolen. */
    double stealSince(const CpuTimes &before) const;
};
/** Peak resident set of a live child, in MB (VmHWM); NaN if unknown. */
double childPeakRssMb(int pid);
/** Run a child to completion, capturing stdout; exit status or -1. */
int runChild(const std::vector<std::string> &argv, std::string *out,
             double timeout_s);
/**
 * The CPUs this process may use, split in two: the last one for a
 * load generator, the rest for the server it drives.  `split` is false
 * (and both sets empty) on a single CPU.
 */
struct CpuSplit {
    cpu_set_t client;
    cpu_set_t server;
    bool split = false;
};
CpuSplit splitCpus();
/**
 * Start a child that dies with this process (PR_SET_PDEATHSIG), on
 * `cpus` when given; stdout goes to stderr so it never mixes into the
 * result line.  A child still running at exit() is killed and reaped
 * then.
 */
int spawnChild(const std::vector<std::string> &argv,
               const std::vector<std::string> &extra_env,
               const cpu_set_t *cpus);
/**
 * SIGTERM a child and wait up to `timeout_s`, then SIGKILL and reap.
 * Returns the exit status, or -1 when it had to be killed.
 */
int stopChild(int pid, double timeout_s);
/** Whole file contents, or "" when unreadable. */
std::string readFile(const std::string &path);
/** Size of a file in bytes, or -1. */
long long fileSize(const std::string &path);
/** A fresh directory under opts.out_dir for this process. */
std::string makeScratchDir(const Options &opts, const std::string &tag);
/**
 * First differing line of two texts, as "line N: got ... want ...",
 * or "" when equal.
 */
std::string firstDifference(const std::string &got,
                            const std::string &want);
/** Remove every directory makeScratchDir() made. */
void removeScratchDirs();
/** The machine and compiler stanza of the result file. */
void writeMachineStanza(gpuscale::obs::JsonWriter &w);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
