/**
 * @file
 * SparsePredictor implementation.
 *
 * Determinism rules (the property tests assert all of these):
 * samples are canonicalized to ascending flat order before any
 * arithmetic, every reduction is an explicitly-ordered loop, the
 * backfit runs a fixed iteration count, and all randomness flows
 * through seeded Rng streams derived from (options.seed, kernel
 * name, ensemble member) — never from global state.
 */

#include "sparse_predictor.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "base/random.hh"

namespace gpuscale {
namespace scaling {

namespace {

/** FNV-1a over a name: the per-kernel salt for ensemble streams. */
uint64_t
nameSalt(const std::string &name)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : name) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Fill unsampled axis levels by linear interpolation over the knob
 * values of the sampled ones (nearest-neighbour at the ends: flat
 * extrapolation is conservative where the data says nothing).
 */
void
fillMissingLevels(std::vector<double> &effect,
                  const std::vector<double> &knob,
                  const std::vector<double> &den)
{
    const size_t n = effect.size();
    size_t fitted = 0;
    for (size_t l = 0; l < n; ++l)
        fitted += den[l] > 0;
    if (fitted == n)
        return;
    if (fitted == 0) {
        for (size_t l = 0; l < n; ++l)
            effect[l] = 0.0;
        return;
    }
    for (size_t l = 0; l < n; ++l) {
        if (den[l] > 0)
            continue;
        // Nearest fitted level on each side.
        size_t lo = n, hi = n;
        for (size_t s = l; s-- > 0;) {
            if (den[s] > 0) {
                lo = s;
                break;
            }
        }
        for (size_t s = l + 1; s < n; ++s) {
            if (den[s] > 0) {
                hi = s;
                break;
            }
        }
        if (lo < n && hi < n) {
            const double t =
                (knob[l] - knob[lo]) / (knob[hi] - knob[lo]);
            effect[l] = effect[lo] + t * (effect[hi] - effect[lo]);
        } else if (lo < n) {
            effect[l] = effect[lo];
        } else {
            effect[l] = effect[hi];
        }
    }
}

} // namespace

std::string
samplerKindName(SamplerKind kind)
{
    switch (kind) {
      case SamplerKind::Lhs:    return "lhs";
      case SamplerKind::Active: return "active";
    }
    panic("unknown sampler kind %d", static_cast<int>(kind));
}

bool
parseSamplerKind(const std::string &name, SamplerKind *out)
{
    if (name == "lhs") {
        *out = SamplerKind::Lhs;
        return true;
    }
    if (name == "active") {
        *out = SamplerKind::Active;
        return true;
    }
    return false;
}

/** Canonical sample set: ascending flat order, axis indices cached. */
struct SparsePredictor::Samples {
    std::vector<size_t> flat;    ///< ascending, distinct
    std::vector<size_t> cu_i, core_i, mem_i;
    std::vector<double> log_rt;
    std::vector<double> runtime;

    size_t size() const { return flat.size(); }
};

SparsePredictor::SparsePredictor(gpu::ConfigGrid space,
                                 SparseFitOptions options)
    : space_(std::move(space)), options_(options)
{
    fatal_if(options_.ensemble < 2,
             "sparse: ensemble must have at least 2 members, got %zu",
             options_.ensemble);
    fatal_if(options_.backfit_iterations == 0,
             "sparse: backfit_iterations must be positive");
    fatal_if(options_.ridge < 0, "sparse: negative ridge %g",
             options_.ridge);
}

SparsePredictor::Samples
SparsePredictor::canonicalize(std::span<const size_t> indices,
                              std::span<const double> runtimes) const
{
    fatal_if(indices.size() != runtimes.size(),
             "sparse: %zu sample indices vs %zu runtimes",
             indices.size(), runtimes.size());
    fatal_if(indices.empty(), "sparse: no samples");

    std::vector<std::pair<size_t, double>> rows;
    rows.reserve(indices.size());
    for (size_t s = 0; s < indices.size(); ++s) {
        fatal_if(indices[s] >= space_.size(),
                 "sparse: sample index %zu outside the %zu-point grid",
                 indices[s], space_.size());
        fatal_if(!(runtimes[s] > 0),
                 "sparse: non-positive runtime %g at index %zu",
                 runtimes[s], indices[s]);
        rows.emplace_back(indices[s], runtimes[s]);
    }
    std::sort(rows.begin(), rows.end());

    Samples out;
    for (const auto &[flat, rt] : rows) {
        if (!out.flat.empty() && out.flat.back() == flat) {
            fatal_if(out.runtime.back() != rt,
                     "sparse: conflicting runtimes %g vs %g for "
                     "config %zu",
                     out.runtime.back(), rt, flat);
            continue;
        }
        const auto axis = space_.unflatten(flat);
        out.flat.push_back(flat);
        out.cu_i.push_back(axis.cu);
        out.core_i.push_back(axis.core);
        out.mem_i.push_back(axis.mem);
        out.runtime.push_back(rt);
        out.log_rt.push_back(std::log(rt));
    }
    return out;
}

std::vector<size_t>
SparsePredictor::anchorConfigs() const
{
    const size_t cu_hi = space_.numCu() - 1;
    const size_t core_hi = space_.numCoreClk() - 1;
    const size_t mem_hi = space_.numMemClk() - 1;

    std::vector<size_t> anchors;
    // The three curves classifySurface() reads: cuCurveAtMax,
    // freqCurveAtMax, memCurveAtMax.
    for (size_t i = 0; i < space_.numCu(); ++i)
        anchors.push_back(space_.flatten(i, core_hi, mem_hi));
    for (size_t j = 0; j < space_.numCoreClk(); ++j)
        anchors.push_back(space_.flatten(cu_hi, j, mem_hi));
    for (size_t k = 0; k < space_.numMemClk(); ++k)
        anchors.push_back(space_.flatten(cu_hi, core_hi, k));
    // The min corner pins the whole-grid range the LaunchBound test
    // reads; cheap insurance for one extra point.
    anchors.push_back(space_.flatten(0, 0, 0));

    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()),
                  anchors.end());
    return anchors;
}

std::vector<size_t>
SparsePredictor::lhsCandidates(size_t count, Rng &rng) const
{
    // Classic Latin hypercube: per axis, a random permutation of
    // `count` strata with a uniform jitter inside each, mapped onto
    // that axis's levels.  Strata cover [0, 1) in 1/count steps, so
    // with count >= levels every level is drawn at least once.
    auto axisDraw = [&](size_t levels) {
        std::vector<size_t> perm(count);
        for (size_t s = 0; s < count; ++s)
            perm[s] = s;
        for (size_t s = count; s-- > 1;) {
            const size_t j = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(s)));
            std::swap(perm[s], perm[j]);
        }
        std::vector<size_t> out(count);
        for (size_t s = 0; s < count; ++s) {
            const double u = (static_cast<double>(perm[s]) +
                              rng.uniform()) /
                             static_cast<double>(count);
            out[s] = std::min(
                levels - 1,
                static_cast<size_t>(u * static_cast<double>(levels)));
        }
        return out;
    };

    const auto cu = axisDraw(space_.numCu());
    const auto core = axisDraw(space_.numCoreClk());
    const auto mem = axisDraw(space_.numMemClk());

    std::vector<size_t> flats(count);
    for (size_t s = 0; s < count; ++s)
        flats[s] = space_.flatten(cu[s], core[s], mem[s]);
    return flats;
}

std::vector<size_t>
SparsePredictor::lhsPlan(size_t budget) const
{
    fatal_if(budget < minSamples(),
             "sparse: budget %zu below the minimum %zu "
             "(anchor slices + 1)",
             budget, minSamples());
    fatal_if(budget > space_.size(),
             "sparse: budget %zu exceeds the %zu-point grid", budget,
             space_.size());

    std::vector<char> selected(space_.size(), 0);
    std::vector<size_t> plan = anchorConfigs();
    for (const size_t flat : plan)
        selected[flat] = 1;

    Rng rng(options_.seed);
    // Fresh stratified draws until the budget is filled; collisions
    // with the anchors (or earlier draws) are skipped.  The bounded
    // retry keeps the plan a pure function of (space, seed, budget);
    // the exhaustive tail walk guarantees termination even for
    // budgets near the full grid.
    for (int round = 0; round < 16 && plan.size() < budget; ++round) {
        const auto candidates = lhsCandidates(budget, rng);
        for (const size_t flat : candidates) {
            if (plan.size() >= budget)
                break;
            if (selected[flat])
                continue;
            selected[flat] = 1;
            plan.push_back(flat);
        }
    }
    for (size_t flat = 0; flat < selected.size() && plan.size() < budget;
         ++flat)
    {
        if (!selected[flat]) {
            selected[flat] = 1;
            plan.push_back(flat);
        }
    }
    return plan;
}

std::vector<double>
SparsePredictor::fitLogAdditive(const Samples &samples,
                                std::span<const double> weights) const
{
    fatal_if(!weights.empty() && weights.size() != samples.size(),
             "sparse: %zu weights vs %zu samples", weights.size(),
             samples.size());
    auto weightOf = [&](size_t s) {
        return weights.empty() ? 1.0 : weights[s];
    };

    const size_t n = samples.size();
    double wsum = 0, ysum = 0;
    for (size_t s = 0; s < n; ++s) {
        wsum += weightOf(s);
        ysum += weightOf(s) * samples.log_rt[s];
    }
    fatal_if(wsum <= 0, "sparse: all sample weights are zero");
    double mu = ysum / wsum;

    // Knob values per axis, for missing-level interpolation.
    std::vector<double> cu_knob(space_.cu_values.begin(),
                                space_.cu_values.end());
    const std::vector<double> &core_knob = space_.core_clks_mhz;
    const std::vector<double> &mem_knob = space_.mem_clks_mhz;

    std::vector<double> a(space_.numCu(), 0.0);
    std::vector<double> b(space_.numCoreClk(), 0.0);
    std::vector<double> c(space_.numMemClk(), 0.0);

    // Backfitting: each sweep re-estimates one axis's level effects
    // from the residuals of the other two, with a ridge term damping
    // sparsely-observed levels.  A fixed sweep count (no convergence
    // test) keeps the fit bitwise deterministic.
    std::vector<double> num, den;
    auto sweepAxis = [&](std::vector<double> &effect,
                         const std::vector<size_t> &level_of,
                         const std::vector<double> &knob,
                         const std::vector<double> &other1,
                         const std::vector<size_t> &other1_of,
                         const std::vector<double> &other2,
                         const std::vector<size_t> &other2_of) {
        num.assign(effect.size(), 0.0);
        den.assign(effect.size(), 0.0);
        for (size_t s = 0; s < n; ++s) {
            const double w = weightOf(s);
            if (w <= 0)
                continue;
            const double r = samples.log_rt[s] - mu -
                             other1[other1_of[s]] -
                             other2[other2_of[s]];
            num[level_of[s]] += w * r;
            den[level_of[s]] += w;
        }
        for (size_t l = 0; l < effect.size(); ++l) {
            if (den[l] > 0)
                effect[l] = num[l] / (den[l] + options_.ridge);
        }
        fillMissingLevels(effect, knob, den);
        // Re-centre so the gauge freedom (a constant can slosh
        // between mu and any axis) cannot drift across sweeps.
        double esum = 0, ewsum = 0;
        for (size_t l = 0; l < effect.size(); ++l) {
            esum += den[l] * effect[l];
            ewsum += den[l];
        }
        if (ewsum > 0) {
            const double shift = esum / ewsum;
            for (size_t l = 0; l < effect.size(); ++l)
                effect[l] -= shift;
            mu += shift;
        }
    };

    for (size_t iter = 0; iter < options_.backfit_iterations; ++iter) {
        sweepAxis(a, samples.cu_i, cu_knob, b, samples.core_i, c,
                  samples.mem_i);
        sweepAxis(b, samples.core_i, core_knob, a, samples.cu_i, c,
                  samples.mem_i);
        sweepAxis(c, samples.mem_i, mem_knob, a, samples.cu_i, b,
                  samples.core_i);
    }

    std::vector<double> out(space_.size());
    size_t flat = 0;
    for (size_t i = 0; i < space_.numCu(); ++i) {
        for (size_t j = 0; j < space_.numCoreClk(); ++j) {
            for (size_t k = 0; k < space_.numMemClk(); ++k) {
                out[flat] = std::exp(mu + a[i] + b[j] + c[k]);
                ++flat;
            }
        }
    }
    return out;
}

std::vector<double>
SparsePredictor::fitSurface(std::span<const size_t> indices,
                            std::span<const double> runtimes) const
{
    const Samples samples = canonicalize(indices, runtimes);
    std::vector<double> out = fitLogAdditive(samples, {});
    // Measured points pass through bitwise: the reconstruction never
    // contradicts a measurement, and a full-grid fit *is* the dense
    // census.
    for (size_t s = 0; s < samples.size(); ++s)
        out[samples.flat[s]] = samples.runtime[s];
    return out;
}

std::vector<std::vector<double>>
SparsePredictor::ensembleSurfaces(const std::string &kernel_name,
                                  const Samples &samples) const
{
    const uint64_t salt = nameSalt(kernel_name);
    std::vector<std::vector<double>> members;
    members.reserve(options_.ensemble);
    std::vector<double> weights(samples.size());
    for (size_t m = 0; m < options_.ensemble; ++m) {
        // One independent stream per (seed, kernel, member): the
        // resample is invariant to sample order because it indexes
        // the canonical (sorted) sample list.
        Rng rng(options_.seed ^ salt ^
                (0x9e3779b97f4a7c15ull * (m + 1)));
        std::fill(weights.begin(), weights.end(), 0.0);
        for (size_t s = 0; s < samples.size(); ++s) {
            const size_t pick = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(samples.size()) - 1));
            weights[pick] += 1.0;
        }
        std::vector<double> member = fitLogAdditive(samples, weights);
        // Members honour the measurements too: bands collapse to
        // zero width where the truth is known.
        for (size_t s = 0; s < samples.size(); ++s)
            member[samples.flat[s]] = samples.runtime[s];
        members.push_back(std::move(member));
    }
    return members;
}

std::vector<size_t>
SparsePredictor::activePlan(
    size_t budget, const std::function<double(size_t)> &measure) const
{
    fatal_if(budget < minSamples(),
             "sparse: budget %zu below the minimum %zu "
             "(anchor slices + 1)",
             budget, minSamples());
    fatal_if(budget > space_.size(),
             "sparse: budget %zu exceeds the %zu-point grid", budget,
             space_.size());
    fatal_if(!measure, "sparse: active plan needs a measure callback");

    std::vector<char> selected(space_.size(), 0);
    std::vector<size_t> plan;
    std::vector<double> measured;
    auto take = [&](size_t flat) {
        selected[flat] = 1;
        plan.push_back(flat);
        measured.push_back(measure(flat));
    };

    for (const size_t flat : anchorConfigs())
        take(flat);

    // Seed: a third of the free budget by LHS, so the first ensemble
    // fit has off-slice support before the greedy loop steers.
    const size_t free_budget = budget - plan.size();
    const size_t seed_count = free_budget / 3;
    Rng rng(options_.seed);
    for (int round = 0;
         round < 16 && plan.size() < anchorConfigs().size() + seed_count;
         ++round)
    {
        const auto candidates = lhsCandidates(budget, rng);
        for (const size_t flat : candidates) {
            if (plan.size() >= anchorConfigs().size() + seed_count)
                break;
            if (selected[flat])
                continue;
            take(flat);
        }
    }

    // Greedy: measure next where the bootstrap ensemble disagrees
    // most (widest log-runtime spread); ties break toward the lowest
    // flat index so the sequence is deterministic.
    while (plan.size() < budget) {
        const Samples samples = canonicalize(plan, measured);
        const auto members = ensembleSurfaces("", samples);
        size_t best = space_.size();
        double best_spread = -1.0;
        for (size_t flat = 0; flat < space_.size(); ++flat) {
            if (selected[flat])
                continue;
            double lo = std::numeric_limits<double>::infinity();
            double hi = -std::numeric_limits<double>::infinity();
            for (const auto &member : members) {
                const double y = std::log(member[flat]);
                lo = std::min(lo, y);
                hi = std::max(hi, y);
            }
            const double spread = hi - lo;
            if (spread > best_spread) {
                best_spread = spread;
                best = flat;
            }
        }
        if (best == space_.size())
            break; // every configuration measured
        take(best);
    }
    return plan;
}

SparseReconstruction
SparsePredictor::reconstruct(const std::string &kernel_name,
                             std::span<const size_t> indices,
                             std::span<const double> runtimes,
                             const TaxonomyParams &params) const
{
    const Samples samples = canonicalize(indices, runtimes);

    std::vector<double> point = fitLogAdditive(samples, {});
    for (size_t s = 0; s < samples.size(); ++s)
        point[samples.flat[s]] = samples.runtime[s];

    const auto members = ensembleSurfaces(kernel_name, samples);

    std::vector<double> lower = point;
    std::vector<double> upper = point;
    for (const auto &member : members) {
        for (size_t j = 0; j < member.size(); ++j) {
            lower[j] = std::min(lower[j], member[j]);
            upper[j] = std::max(upper[j], member[j]);
        }
    }

    SparseReconstruction out{
        ScalingSurface(kernel_name, space_, std::move(point)),
        std::move(lower),
        std::move(upper),
        {},
        1.0,
        false,
        samples.size(),
    };
    out.cls = classifySurface(out.surface, params);

    size_t votes = 0;
    bool member_crosses = false;
    for (size_t m = 0; m < members.size(); ++m) {
        const KernelClassification mc = classifySurface(
            ScalingSurface(kernel_name, space_, members[m]), params);
        if (mc.cls == out.cls.cls)
            ++votes;
        else
            member_crosses = true;
    }
    out.confidence = static_cast<double>(votes) /
                     static_cast<double>(members.size());

    // Adversarial range surfaces.  The ensemble members share the
    // separable fit's bias, so the envelope alone can miss boundary
    // kernels whose whole-grid sensitivity (robustPerfRange, the
    // LaunchBound test) sits near a threshold: scaling every point by
    // a common factor cancels in perf ratios.  Instead, push each
    // point to the band edge that widens (spread) or narrows (shrunk)
    // the grid's dynamic range — fast points faster / slow points
    // slower, and vice versa.  Measured points have zero-width bands,
    // so the anchor curves (and the shape verdicts read from them)
    // are untouched; only the range statistic moves.
    const std::vector<double> &estimate = out.surface.runtimes();
    double mean_log = 0.0;
    for (size_t j = 0; j < estimate.size(); ++j)
        mean_log += std::log(estimate[j]);
    mean_log /= static_cast<double>(estimate.size());
    std::vector<double> spread(estimate.size());
    std::vector<double> shrunk(estimate.size());
    for (size_t j = 0; j < estimate.size(); ++j) {
        const bool fast = std::log(estimate[j]) <= mean_log;
        spread[j] = fast ? out.lower[j] : out.upper[j];
        shrunk[j] = fast ? out.upper[j] : out.lower[j];
    }

    const std::vector<std::vector<double> *> band_surfaces = {
        &out.lower, &out.upper, &spread, &shrunk};
    bool band_crosses = member_crosses;
    for (const auto *runtimes : band_surfaces) {
        const KernelClassification bc = classifySurface(
            ScalingSurface(kernel_name, space_, *runtimes), params);
        band_crosses = band_crosses || bc.cls != out.cls.cls;
    }
    out.band_crosses_boundary = band_crosses;
    return out;
}

} // namespace scaling
} // namespace gpuscale
