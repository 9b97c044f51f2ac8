// Umbrella header for the nvmsim public API.
//
// Pull in everything a downstream user needs:
//   * the heterogeneous memory simulator (MemorySystem, devices, modes),
//   * typed buffers and placement plans,
//   * the application framework and the eight dwarf mini-apps,
//   * profiling (counters, per-phase samples, data-centric profiles),
//   * the Eq. 1 IPC prediction model,
//   * write-aware placement and the storage-tier snapshot machinery,
//   * the registry/harness and report helpers,
//   * the telemetry layer (tracer spans, metric streams, exporters).
#pragma once

#include "appfw/app.hpp"
#include "appfw/context.hpp"
#include "appfw/result.hpp"
#include "dwarfs/dense/scalapack.hpp"
#include "dwarfs/laghos/laghos.hpp"
#include "dwarfs/mc/xsbench.hpp"
#include "dwarfs/nbody/hacc.hpp"
#include "dwarfs/sgrid/hypre.hpp"
#include "dwarfs/sparse/superlu.hpp"
#include "dwarfs/synth/gups.hpp"
#include "dwarfs/synth/stream.hpp"
#include "dwarfs/spectral/ft.hpp"
#include "dwarfs/ugrid/boxlib.hpp"
#include "harness/executor.hpp"
#include "harness/registry.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "mem/buffer.hpp"
#include "mem/placement_plan.hpp"
#include "mem/space.hpp"
#include "memsim/memory_system.hpp"
#include "model/predictor.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"
#include "placement/trace_optimizer.hpp"
#include "placement/write_aware.hpp"
#include "pmem/log.hpp"
#include "pmem/region.hpp"
#include "prof/data_profile.hpp"
#include "replay/recording.hpp"
#include "prof/run_recorder.hpp"
#include "simcore/stats.hpp"
#include "simcore/table.hpp"
#include "simcore/thread_pool.hpp"
#include "simcore/units.hpp"
#include "storage/tiers.hpp"
