/**
 * @file
 * Input-scaling analysis.
 *
 * The paper closes with: benchmark suites do not scale to modern GPU
 * sizes, "implying that either new benchmarks or new inputs are
 * warranted."  This module quantifies the *new inputs* arm: scale a
 * kernel's launch (its input size) and measure how far the CU-scaling
 * knee moves.  Kernels whose knee tracks the input are starved by
 * their inputs and are fixable; kernels whose knee stays put are
 * limited by the algorithm (serialization, contention) and need
 * replacing.
 */

#ifndef GPUSCALE_SCALING_INPUT_SCALING_HH
#define GPUSCALE_SCALING_INPUT_SCALING_HH

#include <vector>

#include "gpu/kernel_desc.hh"
#include "gpu/perf_model.hh"
#include "taxonomy.hh"

namespace gpuscale {
namespace scaling {

/** One row of an input-scaling study. */
struct InputScalePoint {
    /** Multiplier applied to the launch's workgroup count. */
    double input_scale = 1.0;

    /** Workgroups at this input size. */
    int64_t workgroups = 0;

    /** CUs needed to reach 90% of best CU-curve performance. */
    int cu90 = 0;

    /** Speedup of the full machine over the 4-CU machine. */
    double cu_gain = 1.0;

    /** Taxonomy class at this input size. */
    TaxonomyClass cls = TaxonomyClass::Irregular;
};

/** Verdict: is the kernel's CU saturation fixable by bigger inputs? */
enum class InputVerdict {
    /** cu90 reaches the full machine at some tested input size. */
    FixableByInput,

    /** cu90 grows with input but never reaches the machine. */
    PartiallyFixable,

    /** cu90 does not respond to input size: algorithmic limit. */
    AlgorithmLimited,
};

/** Full study result for one kernel. */
struct InputScalingResult {
    std::string kernel;
    std::vector<InputScalePoint> points;
    InputVerdict verdict = InputVerdict::AlgorithmLimited;
};

/**
 * Run the input-scaling study for one kernel.
 *
 * @param model timing model.
 * @param kernel the kernel; its workgroup count is scaled by each
 *        multiplier in turn (work per item is unchanged — the "bigger
 *        input" experiment).
 * @param space the configuration grid.
 * @param multipliers input scales to test; must be positive and
 *        increasing, conventionally starting at 1.
 */
InputScalingResult studyInputScaling(
    const gpu::PerfModel &model, const gpu::KernelDesc &kernel,
    const gpu::ConfigGrid &space,
    const std::vector<double> &multipliers = {1, 4, 16, 64});

/** Human-readable verdict name. */
std::string inputVerdictName(InputVerdict verdict);

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_INPUT_SCALING_HH
