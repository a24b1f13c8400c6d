/**
 * @file
 * ScalingPredictor implementation.
 */

#include "predictor.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "base/logging.hh"
#include "base/math_util.hh"

namespace gpuscale {
namespace scaling {

namespace {

/** Geometric mean of a runtime vector. */
double
geomeanOf(const std::vector<double> &v)
{
    double s = 0;
    for (double e : v)
        s += std::log(e);
    return std::exp(s / static_cast<double>(v.size()));
}

} // namespace

ScalingPredictor::ScalingPredictor(
    const std::vector<ScalingSurface> &surfaces,
    const std::vector<KernelClassification> &classifications)
    : space_(surfaces.empty() ? gpu::ConfigGrid::paperGrid()
                              : surfaces.front().space())
{
    fatal_if(surfaces.empty(), "predictor: no training surfaces");
    fatal_if(surfaces.size() != classifications.size(),
             "predictor: %zu surfaces vs %zu classifications",
             surfaces.size(), classifications.size());

    // Accumulate mean log-shape per class.
    std::map<TaxonomyClass, std::vector<double>> log_sums;
    std::map<TaxonomyClass, size_t> counts;
    for (size_t i = 0; i < surfaces.size(); ++i) {
        const auto &surface = surfaces[i];
        fatal_if(surface.space().size() != space_.size(),
                 "predictor: surface %s on a different grid",
                 surface.kernelName().c_str());
        const double norm = geomeanOf(surface.runtimes());
        auto &sum = log_sums[classifications[i].cls];
        if (sum.empty())
            sum.assign(space_.size(), 0.0);
        for (size_t j = 0; j < space_.size(); ++j)
            sum[j] += std::log(surface.runtimes()[j] / norm);
        ++counts[classifications[i].cls];
    }

    for (auto &[cls, sum] : log_sums) {
        std::vector<double> shape(space_.size());
        for (size_t j = 0; j < space_.size(); ++j) {
            shape[j] = std::exp(
                sum[j] / static_cast<double>(counts[cls]));
        }
        templates_.push_back(std::move(shape));
        template_class_.push_back(cls);
    }
}

size_t
ScalingPredictor::bestTemplate(std::span<const size_t> probe_indices,
                               std::span<const double> probe_runtimes,
                               double *scale_out) const
{
    fatal_if(probe_indices.size() != probe_runtimes.size(),
             "predictor: %zu probe indices vs %zu runtimes",
             probe_indices.size(), probe_runtimes.size());
    fatal_if(probe_indices.empty(), "predictor: no probes");
    for (size_t i = 0; i < probe_indices.size(); ++i) {
        fatal_if(probe_indices[i] >= space_.size(),
                 "predictor: probe index %zu out of range",
                 probe_indices[i]);
        fatal_if(probe_runtimes[i] <= 0,
                 "predictor: non-positive probe runtime %g",
                 probe_runtimes[i]);
    }

    size_t best = 0;
    double best_err = std::numeric_limits<double>::max();
    double best_scale = 1.0;
    for (size_t t = 0; t < templates_.size(); ++t) {
        // Least-squares scale in log space = geometric mean of the
        // probe/template ratios.
        double log_scale = 0;
        for (size_t i = 0; i < probe_indices.size(); ++i) {
            log_scale += std::log(probe_runtimes[i] /
                                  templates_[t][probe_indices[i]]);
        }
        log_scale /= static_cast<double>(probe_indices.size());

        double err = 0;
        for (size_t i = 0; i < probe_indices.size(); ++i) {
            const double e =
                std::log(probe_runtimes[i]) -
                (log_scale +
                 std::log(templates_[t][probe_indices[i]]));
            err += e * e;
        }
        if (err < best_err) {
            best_err = err;
            best = t;
            best_scale = std::exp(log_scale);
        }
    }
    if (scale_out)
        *scale_out = best_scale;
    return best;
}

std::vector<double>
ScalingPredictor::predict(std::span<const size_t> probe_indices,
                          std::span<const double> probe_runtimes) const
{
    double scale = 1.0;
    const size_t t =
        bestTemplate(probe_indices, probe_runtimes, &scale);

    std::vector<double> out(space_.size());
    for (size_t j = 0; j < space_.size(); ++j)
        out[j] = scale * templates_[t][j];
    return out;
}

TaxonomyClass
ScalingPredictor::matchClass(
    std::span<const size_t> probe_indices,
    std::span<const double> probe_runtimes) const
{
    return template_class_[bestTemplate(probe_indices, probe_runtimes,
                                        nullptr)];
}

std::vector<size_t>
ScalingPredictor::defaultProbes(const gpu::ConfigGrid &space)
{
    const size_t cu_hi = space.numCu() - 1;
    const size_t core_hi = space.numCoreClk() - 1;
    const size_t mem_hi = space.numMemClk() - 1;
    return {
        space.flatten(0, 0, 0),
        space.flatten(cu_hi, core_hi, mem_hi),
        space.flatten(cu_hi, core_hi, 0),
        space.flatten(cu_hi, 0, mem_hi),
        space.flatten(0, core_hi, mem_hi),
        space.flatten(cu_hi / 2, core_hi / 2, mem_hi / 2),
    };
}

PredictionError
evaluatePrediction(std::span<const double> predicted,
                   std::span<const double> actual)
{
    fatal_if(predicted.size() != actual.size(),
             "evaluatePrediction: %zu predicted vs %zu actual",
             predicted.size(), actual.size());
    fatal_if(predicted.empty(), "evaluatePrediction: empty input");

    std::vector<double> apes;
    apes.reserve(predicted.size());
    for (size_t i = 0; i < predicted.size(); ++i) {
        fatal_if(actual[i] <= 0,
                 "evaluatePrediction: non-positive truth %g",
                 actual[i]);
        apes.push_back(std::abs(predicted[i] - actual[i]) / actual[i]);
    }

    PredictionError err;
    err.mape = mean(apes);
    err.median_ape = percentile(apes, 50.0);
    err.p90_ape = percentile(apes, 90.0);
    return err;
}

} // namespace scaling
} // namespace gpuscale
