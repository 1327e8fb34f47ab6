// Umbrella header: the full public surface of op2ca.
//
// Typical applications only need core/runtime.hpp (which pulls in the
// mesh, partition, halo and comm types it exposes); this header adds the
// generators, model (including the GPU transfer-pipeline model) and
// application analogues for convenience.
#pragma once

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/chain.hpp"
#include "op2ca/core/chain_config.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/core/slice.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/mesh/adjacency.hpp"
#include "op2ca/mesh/annulus.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/mesh_def.hpp"
#include "op2ca/mesh/mesh_io.hpp"
#include "op2ca/mesh/multigrid.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "op2ca/mesh/vtk.hpp"
#include "op2ca/model/calibrate.hpp"
#include "op2ca/model/components.hpp"
#include "op2ca/model/machine.hpp"
#include "op2ca/model/perf_model.hpp"
#include "op2ca/model/pipeline.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/partition/quality.hpp"
#include "op2ca/util/options.hpp"
#include "op2ca/util/rng.hpp"
#include "op2ca/util/table.hpp"
#include "op2ca/util/timer.hpp"
