/**
 * @file
 * Classify a user-described kernel and export its scaling surface.
 *
 * Kernel properties are given as key=value arguments; anything not
 * specified keeps the KernelDesc default.  The full 891-point surface
 * is written as CSV (for plotting elsewhere) and the three scaling
 * curves are drawn in the terminal.
 *
 *   $ ./custom_kernel wgs=64 valu=4000 loads=2 [out=surface.csv]
 *
 * Keys: wgs, wi, launches, valu, sfu, loads, stores, bytes, coalesce,
 *       lds_ops, lds_bytes, vgprs, divergence, barriers, l1, l2,
 *       footprint, shared, mlp, serial, atomics, contention,
 *       overhead_us, out.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "base/plot.hh"
#include "base/string_util.hh"
#include "gpu/analytic_model.hh"
#include "gpu/kernel_desc.hh"
#include "harness/sweep.hh"
#include "scaling/report.hh"
#include "scaling/taxonomy.hh"

namespace {

using namespace gpuscale;

bool
applyKey(gpu::KernelDesc &k, const std::string &key, double v)
{
    if (key == "wgs") k.num_workgroups = static_cast<int64_t>(v);
    else if (key == "wi") k.work_items_per_wg = static_cast<int>(v);
    else if (key == "launches") k.launches = static_cast<int64_t>(v);
    else if (key == "valu") k.valu_ops = v;
    else if (key == "sfu") k.sfu_ops = v;
    else if (key == "loads") k.mem_loads = v;
    else if (key == "stores") k.mem_stores = v;
    else if (key == "bytes") k.bytes_per_access = v;
    else if (key == "coalesce") k.coalescing = v;
    else if (key == "lds_ops") k.lds_ops = v;
    else if (key == "lds_bytes") k.lds_bytes_per_wg = v;
    else if (key == "vgprs") k.vgprs = static_cast<int>(v);
    else if (key == "divergence") k.branch_divergence = v;
    else if (key == "barriers") k.barriers = v;
    else if (key == "l1") k.l1_reuse = v;
    else if (key == "l2") k.l2_reuse = v;
    else if (key == "footprint") k.footprint_bytes_per_wg = v;
    else if (key == "shared") k.shared_footprint_bytes = v;
    else if (key == "mlp") k.mlp = v;
    else if (key == "serial") k.serial_fraction = v;
    else if (key == "atomics") k.atomic_ops = v;
    else if (key == "contention") k.atomic_contention = v;
    else if (key == "overhead_us") k.host_overhead_us = v;
    else return false;
    return true;
}

void
drawCurve(const char *title, const char *x_label,
          const std::vector<double> &knob,
          const std::vector<double> &perf)
{
    LineChart chart(title, x_label, "speedup");
    chart.setSize(60, 12);
    chart.addSeries({"perf", knob, normalizeToFirst(perf)});
    std::printf("%s\n", chart.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    gpu::KernelDesc kernel;
    kernel.name = "user/custom/kernel";

    std::string out_path;
    for (int i = 1; i < argc; ++i) {
        const auto parts = split(argv[i], '=');
        if (parts.size() != 2) {
            std::fprintf(stderr, "expected key=value, got '%s'\n",
                         argv[i]);
            return 1;
        }
        if (parts[0] == "out") {
            out_path = parts[1];
            continue;
        }
        if (!applyKey(kernel, parts[0], std::atof(parts[1].c_str()))) {
            std::fprintf(stderr, "unknown key '%s'\n",
                         parts[0].c_str());
            return 1;
        }
    }
    kernel.validate();
    std::printf("%s\n\n", kernel.describe().c_str());

    const gpu::AnalyticModel model;
    const auto space = gpu::ConfigGrid::paperGrid();
    const auto surface = harness::sweepKernel(model, kernel, space);
    const auto cls = scaling::classifySurface(surface);

    std::printf("classification: %s  (grid-wide range %.1fx)\n\n",
                scaling::taxonomyClassName(cls.cls).c_str(),
                cls.perf_range);

    drawCurve("vs core clock (44 CU, 1250 MHz mem)", "MHz",
              space.core_clks_mhz, surface.freqCurveAtMax());
    drawCurve("vs memory clock (44 CU, 1000 MHz core)", "MHz",
              space.mem_clks_mhz, surface.memCurveAtMax());
    drawCurve("vs compute units (1000 MHz, 1250 MHz)", "CUs",
              std::vector<double>(space.cu_values.begin(),
                                  space.cu_values.end()),
              surface.cuCurveAtMax());

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        scaling::writeSurfaceCsv(os, surface);
        std::printf("surface written to %s (%zu rows)\n",
                    out_path.c_str(), space.size());
    }
    return 0;
}
