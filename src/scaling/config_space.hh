/**
 * @file
 * The old name of gpu::ConfigGrid.
 */

#ifndef GPUSCALE_SCALING_CONFIG_SPACE_HH
#define GPUSCALE_SCALING_CONFIG_SPACE_HH

#include "gpu/config_grid.hh"

namespace gpuscale {
namespace scaling {

// For perfbench only; everything else names gpu::ConfigGrid.
using ConfigSpace = gpu::ConfigGrid;

} // namespace scaling
} // namespace gpuscale

#endif // GPUSCALE_SCALING_CONFIG_SPACE_HH
