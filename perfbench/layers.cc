/**
 * @file
 * Per-layer probes of the traced run: each public call named in
 * README.md's layer map, timed from outside on the paper grid.
 *
 * Every probe repeats its call and reports a median, so one run's
 * reading does not hinge on a single sample.  The two overhead ratios
 * are paired: each pair runs both arms back to back, in alternating
 * order, and the result is the median pair ratio with a seeded
 * bootstrap interval.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "bench.hh"
#include "gpu/analytic_batch.hh"
#include "gpu/analytic_model.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/sparse.hh"
#include "harness/sweep_cache.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/run_manifest.hh"
#include "scaling/report.hh"
#include "scaling/suite_analysis.hh"
#include "service/admission.hh"
#include "service/batcher.hh"
#include "service/protocol.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace {

using namespace gpuscale;

constexpr int kReps = 15;
constexpr int kPairs = 16;
constexpr size_t kFrames = 2000;
constexpr int kBatcherCalls = 300;

/** Milliseconds `fn` takes, once. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    const double t0 = nowS();
    fn();
    return (nowS() - t0) * 1e3;
}

/** Median milliseconds of `reps` calls of `fn`, each after `before`. */
template <typename Before, typename Fn>
double
medianMs(int reps, Before &&before, Fn &&fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        before();
        ms.push_back(timeMs(fn));
    }
    return median(ms);
}

/**
 * Paired A/B: `treated` over `base`, each pair run back to back with
 * the order alternating between pairs.
 */
template <typename Treated, typename Base>
Interval
pairedOverhead(uint64_t seed, Treated &&treated, Base &&base)
{
    std::vector<double> t_ms, b_ms;
    for (int i = 0; i < kPairs; ++i) {
        if (i % 2 == 0) {
            t_ms.push_back(treated());
            b_ms.push_back(base());
        } else {
            b_ms.push_back(base());
            t_ms.push_back(treated());
        }
    }
    return pairedRatio(t_ms, b_ms, seed);
}

void
putInterval(Outcome &out, const std::string &stem, const Interval &ci)
{
    out.metrics[stem + "_ratio"] = ci.estimate;
    out.metrics[stem + "_ci_lo"] = ci.lo;
    out.metrics[stem + "_ci_hi"] = ci.hi;
}

/** The grids the predict batcher builds from a stream of predicts. */
std::vector<std::pair<const gpu::KernelDesc *, gpu::ConfigGrid>>
batcherGrids(const std::vector<MixRequest> &mix, const gpu::GpuConfig &base,
             size_t batch)
{
    std::vector<std::pair<const gpu::KernelDesc *, gpu::ConfigGrid>> out;
    std::map<const gpu::KernelDesc *, gpu::ConfigGrid> groups;
    size_t in_batch = 0;
    const auto flush = [&] {
        for (auto &[kernel, grid] : groups) {
            const auto uniq = [](auto &axis) {
                std::sort(axis.begin(), axis.end());
                axis.erase(std::unique(axis.begin(), axis.end()),
                           axis.end());
            };
            uniq(grid.cu_values);
            uniq(grid.core_clks_mhz);
            uniq(grid.mem_clks_mhz);
            out.emplace_back(kernel, std::move(grid));
        }
        groups.clear();
        in_batch = 0;
    };
    for (const auto &r : mix) {
        if (r.kind != MixRequest::Kind::Predict)
            continue;
        auto &grid = groups[r.kernel];
        grid.base = base;
        grid.cu_values.push_back(r.cu);
        grid.core_clks_mhz.push_back(r.core_clk_mhz);
        grid.mem_clks_mhz.push_back(r.mem_clk_mhz);
        if (++in_batch == batch)
            flush();
    }
    flush();
    return out;
}

} // namespace

void
runLayerProbes(const Options &opts, Outcome &out)
{
    const gpu::AnalyticModel model;
    const auto space = scaling::ConfigSpace::paperGrid();
    const gpu::ConfigGrid grid = space.grid();
    const auto kernels = workloads::WorkloadRegistry::instance().allKernels();
    auto &cache = harness::SweepCache::instance();
    cache.clear();
    const harness::CensusResult census = harness::runCensus(model, space);
    const std::string dir = makeScratchDir(opts, "layers");
    const auto mix = generateMix(opts.seed, kFrames, 1);
    const auto nothing = [] {};

    // gpu
    std::vector<gpu::batch::BatchPlan> plans(kernels.size());
    const double prepare_ms = medianMs(kReps, nothing, [&] {
        for (size_t k = 0; k < kernels.size(); ++k)
            plans[k] = model.prepareBatch(*kernels[k], grid);
    });
    std::vector<double> buf(grid.size());
    double sink = 0.0;
    const double kernel_ms = medianMs(kReps, nothing, [&] {
        for (const auto &plan : plans) {
            gpu::batch::runBatch(plan, buf.data());
            sink += buf[0];
        }
    });
    out.metrics["gpu.prepare_ms"] = prepare_ms;
    out.metrics["gpu.kernel_ms"] = kernel_ms;
    out.metrics["gpu.kernel_ns_per_point"] =
        kernel_ms * 1e6 / static_cast<double>(kernels.size() * grid.size());
    {
        std::vector<double> us;
        const size_t batch = std::clamp<size_t>(
            std::thread::hardware_concurrency(), 1, 4);
        for (const auto &[kernel, g] : batcherGrids(mix, grid.base, batch)) {
            const double t0 = nowS();
            sink += model.evaluateGridRuntimes(*kernel, g)[0];
            us.push_back((nowS() - t0) * 1e6);
        }
        out.metrics["gpu.small_grid_us"] = median(us);
    }

    // harness
    {
        std::vector<double> us;
        for (int r = 0; r < 4; ++r) {
            for (const auto *k : kernels) {
                const double t0 = nowS();
                sink += static_cast<double>(
                    harness::SweepCache::keyFor(model, *k, grid).size());
                us.push_back((nowS() - t0) * 1e6);
            }
        }
        out.metrics["harness.key_us"] = median(us);
    }
    const auto cold = [&] { cache.clear(); };
    const double sweep_1t_ms = medianMs(kReps, cold, [&] {
        for (const auto *k : kernels)
            sink += harness::sweepKernel(model, *k, space).runtimes()[0];
    });
    out.metrics["harness.sweep_1t_ms"] = sweep_1t_ms;
    out.metrics["harness.overhead_ratio"] =
        sweep_1t_ms / (prepare_ms + kernel_ms);
    {
        auto &imbalance =
            obs::Registry::instance().gauge("parallel.worker.imbalance");
        std::vector<double> ms, imb;
        for (int i = 0; i < kReps; ++i) {
            cache.clear();
            ms.push_back(timeMs(
                [&] { harness::sweepKernels(model, kernels, space); }));
            imb.push_back(imbalance.value());
        }
        out.metrics["harness.pool_ms"] = median(ms);
        out.metrics["harness.pool_speedup"] = sweep_1t_ms / median(ms);
        out.metrics["harness.pool_imbalance"] = median(imb);
    }
    harness::sweepKernels(model, kernels, space);
    out.metrics["harness.cache_hit_ms"] = medianMs(kReps, nothing, [&] {
        harness::sweepKernels(model, kernels, space);
    });
    {
        int n = 0;
        std::string jdir;
        out.metrics["harness.journal_write_ms"] = medianMs(
            kReps, [&] { jdir = dir + "/journal-" + std::to_string(n++); },
            [&] {
                harness::CensusJournal journal(jdir, model.fingerprint(),
                                               grid.fingerprint());
                for (const auto &s : census.surfaces)
                    journal.record(s.kernelName(), s.runtimes());
                journal.sync();
            });
    }
    {
        int n = 0;
        putInterval(
            out, "harness.journal_overhead",
            pairedOverhead(
                opts.seed,
                [&] {
                    const std::string jdir =
                        dir + "/paired-" + std::to_string(n++);
                    cache.clear();
                    return timeMs([&] {
                        harness::CensusJournal journal(
                            jdir, model.fingerprint(), grid.fingerprint());
                        harness::runCensus(model, space, {}, nullptr,
                                           &journal);
                        journal.sync();
                    });
                },
                [&] {
                    cache.clear();
                    return timeMs([&] { harness::runCensus(model, space); });
                }));
    }
    {
        const harness::SparseCensusOptions options =
            sparseOptions(opts.seed);
        scaling::SparseFitOptions fit;
        fit.seed = options.seed;
        const scaling::SparsePredictor predictor(space, fit);
        cache.clear();
        std::vector<double> ms;
        for (const auto *k : kernels) {
            ms.push_back(timeMs([&] {
                sink += harness::sparseSweepKernel(model, *k, predictor,
                                                   options)
                            .confidence;
            }));
        }
        out.metrics["harness.sparse_kernel_ms"] = median(ms);
        out.metrics["harness.sparse_kernel_p90_ms"] = percentile(ms, 90);

        std::vector<double> us;
        for (int i = 0; i < 200; ++i) {
            const double t0 = nowS();
            sink += static_cast<double>(
                predictor.lhsPlan(options.samples).size());
            us.push_back((nowS() - t0) * 1e6);
        }
        out.metrics["scaling.sparse_plan_us"] = median(us);
    }

    // scaling
    out.metrics["scaling.classify_ms"] = medianMs(kReps, nothing, [&] {
        sink += scaling::classifyAll(census.surfaces)[0].perf_range;
    });
    out.metrics["scaling.report_ms"] = medianMs(kReps, nothing, [&] {
        std::ofstream txt(dir + "/census.txt");
        txt << scaling::classHistogramTable(census.classifications).render()
            << "\n"
            << scaling::suiteBreakdownTable(
                   scaling::analyzeSuites(census.classifications, 44), 44)
                   .render();
        std::ofstream csv(dir + "/classifications.csv");
        scaling::writeClassificationsCsv(csv, census.classifications);
    });

    // obs
    out.metrics["obs.manifest_ms"] = medianMs(kReps, nothing, [&] {
        obs::writeManifest(harness::censusManifest(census, model),
                           dir + "/classifications.manifest.json");
    });
    {
        std::vector<double> parse_us, request_us;
        for (const auto &r : mix) {
            double t0 = nowS();
            sink += obs::parseJson(r.frame).object.size();
            parse_us.push_back((nowS() - t0) * 1e6);
            service::Request req;
            std::string error;
            t0 = nowS();
            sink += service::parseRequest(r.frame, &req, &error);
            request_us.push_back((nowS() - t0) * 1e6);
        }
        out.metrics["obs.json_parse_us"] = median(parse_us);
        out.metrics["service.parse_us"] = median(request_us);
    }
    putInterval(out, "obs.telemetry_overhead",
                pairedOverhead(
                    opts.seed,
                    [&] {
                        cache.clear();
                        return timeMs([&] {
                            harness::sweepKernels(model, kernels, space);
                        });
                    },
                    [&] {
                        cache.clear();
                        obs::Registry::setQuiesced(true);
                        const double ms = timeMs([&] {
                            harness::sweepKernels(model, kernels, space);
                        });
                        obs::Registry::setQuiesced(false);
                        return ms;
                    }));

    // service
    {
        std::vector<double> us;
        for (size_t i = 0; i < mix.size(); ++i) {
            const double t0 = nowS();
            const std::string frame =
                i % 2 == 0
                    ? service::renderResult(
                          i,
                          [&](obs::JsonWriter &w) {
                              w.beginObject();
                              w.key("runtime_s").value(buf[i % buf.size()]);
                              w.endObject();
                          })
                    : service::renderError(i, service::ErrorCode::RetryAfter,
                                           "overloaded; retry later", 25.0);
            us.push_back((nowS() - t0) * 1e6);
            sink += static_cast<double>(frame.size());
        }
        out.metrics["service.render_us"] = median(us);
    }
    {
        service::AdmissionControl admission(64, 16);
        std::vector<double> us;
        for (size_t i = 0; i < kFrames; ++i) {
            const double t0 = nowS();
            const auto verdict = admission.admit("perfbench");
            if (verdict.admitted)
                admission.release("perfbench");
            us.push_back((nowS() - t0) * 1e6);
        }
        out.metrics["service.admit_us"] = median(us);
    }
    {
        service::PredictBatcher batcher(model, grid.base);
        std::vector<double> us;
        for (const auto &r : mix) {
            if (r.kind != MixRequest::Kind::Predict ||
                us.size() >= static_cast<size_t>(kBatcherCalls))
                continue;
            service::PredictRequest ask;
            ask.kernel = r.kernel;
            ask.num_cus = r.cu;
            ask.core_clk_mhz = r.core_clk_mhz;
            ask.mem_clk_mhz = r.mem_clk_mhz;
            ask.deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            const double t0 = nowS();
            sink += batcher.predict(ask).runtime_s;
            us.push_back((nowS() - t0) * 1e6);
        }
        batcher.stop();
        out.metrics["service.batcher_us"] = median(us);
    }

    // Keeps the timed calls' results alive past the optimizer.
    if (sink == 42.0)
        std::fprintf(stderr, "\n");
}

} // namespace perfbench
