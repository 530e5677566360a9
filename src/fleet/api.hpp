#pragma once
// envmon::fleet — the versioned public surface for fleet-scale collection.
//
// The paper's MonEQ results (Table III) are about scale: per-node
// collection on up to 48 racks of Mira with sub-1% overhead.  Version 1
// of this reproduction's public surface was the MonEQ C API (capi.hpp):
// one bound profiler, int status codes, single-threaded.  Version 2 is
// this namespace: a FleetRunner owns the whole profiler lifecycle
// (configure → run → report), errors are common::Status, and the fleet
// is simulated in parallel across worker threads while staying
// byte-deterministic (see runner.hpp for the execution model).
//
// Versioning: `inline namespace v2` keeps envmon::fleet::FleetRunner
// spelling stable while allowing a future v3 to coexist; the constants
// below let callers assert against the surface they compiled for.  The
// MonEQ_* C shims that bridged v1 callers were removed once the in-tree
// migration finished; the paper's two-line Listing 1 is now spelled
// profiler.initialize() / profiler.finalize() (DESIGN.md §9).

#include "fleet/runner.hpp"

namespace envmon::fleet {

// v2.1: work-stealing shard scheduler, fleet failure detector
// (FleetReport liveness counts), and memory accounting (rss_bytes,
// bytes_per_node).  Not a pure extension: FleetConfig is down to the
// fields a caller chooses (shape, threads, epoch, horizon, polling,
// seed, ingest, database, output, fault_script).  Shard count, skew
// window, queue capacity, workload, degradation policy, telemetry,
// self-scrape, the failure detector and recorder sizing are fixed by the
// runner; the filesystem cost model, ingest deadline and post-mortem
// file are gone.  A caller that set any of those fields no longer
// compiles.
inline constexpr int kApiVersionMajor = 2;
inline constexpr int kApiVersionMinor = 1;

[[nodiscard]] constexpr const char* api_version_string() { return "envmon.fleet/v2.1"; }

}  // namespace envmon::fleet
