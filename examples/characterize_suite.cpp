/**
 * @file
 * Characterize one benchmark suite: sweep every kernel over the study
 * grid, print the per-kernel classification, and summarize whether the
 * suite scales to a modern GPU — the per-suite slice of the paper's
 * analysis.
 *
 *   $ ./characterize_suite [suite]     (default: pannotia)
 */

#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "base/table.hh"
#include "gpu/analytic_model.hh"
#include "harness/sweep.hh"
#include "scaling/suite_analysis.hh"
#include "scaling/taxonomy.hh"
#include "workloads/registry.hh"

int
main(int argc, char **argv)
{
    using namespace gpuscale;

    const std::string suite = argc > 1 ? argv[1] : "pannotia";
    const auto &registry = workloads::WorkloadRegistry::instance();
    const auto kernels = registry.kernelsInSuite(suite);
    if (kernels.empty()) {
        std::fprintf(stderr, "unknown suite '%s'; available:",
                     suite.c_str());
        for (const auto &name : registry.suiteNames())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 1;
    }

    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::paperGrid();
    const auto surfaces = harness::sweepKernels(model, kernels, space);
    const auto classifications = scaling::classifyAll(surfaces);

    std::printf("suite '%s': %zu kernels x %zu configurations\n\n",
                suite.c_str(), kernels.size(), space.size());

    TextTable t;
    t.addColumn("kernel");
    t.addColumn("class");
    t.addColumn("freq", TextTable::Align::Right);
    t.addColumn("mem", TextTable::Align::Right);
    t.addColumn("cu", TextTable::Align::Right);
    t.addColumn("cu90", TextTable::Align::Right);
    for (const auto &c : classifications) {
        t.row({c.kernel.substr(suite.size() + 1),
               scaling::taxonomyClassName(c.cls),
               strprintf("%.2fx", c.freq.total_gain),
               strprintf("%.2fx", c.mem.total_gain),
               strprintf("%.2fx", c.cu.total_gain),
               strprintf("%d", c.cu90)});
    }
    std::fputs(t.render().c_str(), stdout);

    const auto reports = scaling::analyzeSuites(classifications, 44);
    const auto &r = reports.front();
    std::printf(
        "\nsummary: median cu90 = %.0f of 44 CUs; %.0f%% of kernels\n"
        "saturate below the full machine; %.0f%% sit in classes that\n"
        "cannot use a bigger GPU at all.\n",
        r.median_cu90, 100.0 * r.frac_saturating,
        100.0 * r.frac_non_scaling);
    return 0;
}
