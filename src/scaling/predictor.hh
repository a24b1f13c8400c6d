/**
 * @file
 * Scaling-surface prediction from sparse probes.
 *
 * The practical payoff of a scaling taxonomy: kernels in the same
 * class share a scaling *shape*, so once per-class templates are
 * learned from a training census, a new kernel's full 891-point
 * surface can be predicted from measurements at a handful of probe
 * configurations — pick the template that best explains the probes,
 * scale it through them, done.  This is the direction the authors
 * took the dataset (ML-based performance/power estimation); here it
 * doubles as a quantitative test that the taxonomy carries real
 * predictive signal.
 */

#ifndef GPUSCALE_SCALING_PREDICTOR_HH
#define GPUSCALE_SCALING_PREDICTOR_HH

#include <span>
#include <string>
#include <vector>

#include "surface.hh"
#include "taxonomy.hh"

namespace gpuscale {
namespace scaling {

/** Accuracy summary of a predicted surface against the truth. */
struct PredictionError {
    /** Mean absolute percentage error over the grid. */
    double mape = 0.0;

    /** Median absolute percentage error. */
    double median_ape = 0.0;

    /** 90th-percentile absolute percentage error. */
    double p90_ape = 0.0;
};

/** Per-class scaling templates + probe-based surface prediction. */
class ScalingPredictor
{
  public:
    /**
     * Learn one template per (populated) taxonomy class.
     *
     * Each template is the geometric mean of the class members'
     * surfaces after normalizing every surface by its own geometric
     * mean — i.e. a pure shape, magnitude removed.
     *
     * @param surfaces training surfaces (all on the same grid).
     * @param classifications matching classifications (same order).
     */
    ScalingPredictor(
        const std::vector<ScalingSurface> &surfaces,
        const std::vector<KernelClassification> &classifications);

    /**
     * Predict a full surface from probe measurements.
     *
     * Chooses the template with the least squared log-error on the
     * probes, then scales it through them (geometric-mean fit).
     *
     * @param probe_indices flat configuration indices measured.
     * @param probe_runtimes measured runtimes (seconds, positive).
     * @return predicted runtime at every grid point.
     */
    std::vector<double> predict(
        std::span<const size_t> probe_indices,
        std::span<const double> probe_runtimes) const;

    /** The class of the template the last predict() would pick. */
    TaxonomyClass matchClass(
        std::span<const size_t> probe_indices,
        std::span<const double> probe_runtimes) const;

    /** Number of learned templates (populated classes). */
    size_t numTemplates() const { return templates_.size(); }

    const gpu::ConfigGrid &space() const { return space_; }

    /**
     * Default probe set: the grid corners plus the centre — the
     * measurements a practitioner would take first.
     */
    static std::vector<size_t> defaultProbes(const gpu::ConfigGrid &space);

  private:
    size_t bestTemplate(std::span<const size_t> probe_indices,
                        std::span<const double> probe_runtimes,
                        double *scale_out) const;

    gpu::ConfigGrid space_;
    std::vector<std::vector<double>> templates_; ///< shape surfaces
    std::vector<TaxonomyClass> template_class_;
};

/** Compare a predicted surface against the measured truth. */
PredictionError evaluatePrediction(std::span<const double> predicted,
                                   std::span<const double> actual);

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_PREDICTOR_HH
