#!/usr/bin/env bash
# The full pre-merge check, runnable anywhere the toolchain exists:
#
#   1. tier-1: default build + the complete ctest suite (ROADMAP.md's
#      "must stay green" bar);
#   2. the 4096-node fleet bench smoke: determinism across 1/2/8
#      workers, throughput, per-node memory, and telemetry self-overhead
#      gates on the work-stealing scheduler (exit code is the gate);
#   3. crash-recovery smoke: the durability bench writer is SIGKILLed
#      mid-ingest and the store must reopen with a byte-identical
#      prefix of the deterministic stream (DESIGN.md §13's gate);
#   4. daemon smoke: a real envmond process serves three concurrent
#      clients over its Unix socket, then the in-process variant also
#      gates frame-log replay identity (DESIGN.md §14's gate);
#   5. observability demo: examples/observability_demo must exit 0 and
#      print its post-mortem — the one end-to-end run of the obs
#      exports and the flight recorder dump;
#   6. fleet example: examples/fleet_collection (the README's
#      FleetRunner example) must exit 0;
#   7. property sweep: the `prop` label re-runs at an elevated case
#      count (the tier-1 pass already ran the defaults).  The label
#      also holds the decode kernels bit-identical to the reference
#      decoders on the sensor-shaped column and timestamp stream
#      (PropCodec.SensorColumnAndCadenceStreamDecodeBitIdentical,
#      DESIGN.md §15's identity contract), the MonEQ node file's bytes
#      against a checked-in golden file (NodeFileGolden), and the
#      node-file number formatting against printf("%.*f")
#      (PropFixed.AppendFixedMatchesPrintf) in every pass
#      that runs it;
#   8. Release build (-O3), compile only, no ctest: diagnostics that
#      only the optimizer emits (GCC's -Werror=restrict, for one) fail
#      here instead of on the first optimized build;
#   9. ASan+UBSan build of the obs + fleet + persist + daemon + prop +
#      tsdb + resilience labels (the suites that exercise the telemetry
#      rollup, flight recorders, the ingest path, the durable storage
#      layer, the wire protocol, the randomized codec/fold/engine
#      properties, the scan pipeline's read path, and graceful
#      degradation under the seeded fault storm — the garbage-decode
#      properties are the UBSan workload for the bit-level kernels, and
#      PropFixed.* the ASan workload for the fixed stack buffers the
#      node-file and export renderers format numbers into);
#  10. TSan build of the same labels — the fleet suite's 8-worker
#      byte-equality tests, the daemon suite's multi-client
#      server/client runs, and the tsdb suite's 4-thread query tests
#      (EnvDatabaseBlocks.ParallelQueryMatchesSerialAcrossThreadCounts
#      and EnvDatabaseBlocks.QueryReturnsRowsInInsertionOrderAtAnyThreadCount,
#      the parallel materialize sink's race workload) double as its
#      data-race workload.
#
# Usage: ci/check.sh [--tier1-only]
# Build trees land in build/ (tier 1), build-release/, build-asan/, and
# build-tsan/.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
SANITIZED_LABELS='obs|fleet|persist|daemon|prop|tsdb|resilience'
# High-case-count sweep for the dedicated property pass; the sanitizer
# passes keep the default counts so the matrix stays fast.
PROP_SWEEP_CASES=2000

run_suite() {
  local dir="$1"; shift
  local label="$1"; shift
  echo "== ${label}: configure + build (${dir}) =="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
}

run_suite build "tier 1"
echo "== tier 1: ctest (all labels) =="
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== fleet bench smoke: 4096 nodes, 1/2/8 workers =="
./build/bench/fleet_scale --smoke

echo "== crash-recovery smoke: kill -9 mid-ingest, reopen, verify digest =="
CRASH_DIR="$(mktemp -d)"
trap 'rm -rf "${CRASH_DIR}"' EXIT
./build/bench/durability --writer "${CRASH_DIR}" &
WRITER_PID=$!
sleep 2
kill -9 "${WRITER_PID}" 2>/dev/null || true
wait "${WRITER_PID}" 2>/dev/null || true
./build/bench/durability --verify "${CRASH_DIR}"

echo "== daemon smoke: envmond process + 3 clients, then replay identity =="
DAEMON_SOCK="${CRASH_DIR}/envmond.sock"
./build/examples/envmond "${DAEMON_SOCK}" &
DAEMON_PID=$!
for _ in $(seq 50); do [[ -S "${DAEMON_SOCK}" ]] && break; sleep 0.1; done
./build/bench/daemon_ingest --smoke "${DAEMON_SOCK}"
kill -TERM "${DAEMON_PID}" 2>/dev/null || true
wait "${DAEMON_PID}" 2>/dev/null || true
./build/bench/daemon_ingest --smoke

echo "== observability demo: exports + flight recorder post-mortem =="
DEMO_OUT="$(./build/examples/observability_demo)"
grep -q -- "----- Post-mortem" <<<"${DEMO_OUT}"
grep -q '"name": "backend.health"' <<<"${DEMO_OUT}"

echo "== fleet example: the README's FleetRunner run =="
./build/examples/fleet_collection

echo "== property sweep: -L prop at ENVMON_PROP_CASES=${PROP_SWEEP_CASES} =="
ENVMON_PROP_CASES="${PROP_SWEEP_CASES}" \
  ctest --test-dir build --output-on-failure -j "${JOBS}" -L prop

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "OK (tier 1 only)"
  exit 0
fi

run_suite build-release "Release (compile only)" -DCMAKE_BUILD_TYPE=Release

run_suite build-asan "ASan+UBSan" -DENVMON_SANITIZE=address
echo "== ASan+UBSan: ctest -L '${SANITIZED_LABELS}' =="
ctest --test-dir build-asan --output-on-failure -j "${JOBS}" -L "${SANITIZED_LABELS}"

run_suite build-tsan "TSan" -DENVMON_TSAN=ON
echo "== TSan: ctest -L '${SANITIZED_LABELS}' =="
ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" -L "${SANITIZED_LABELS}"

echo "OK: tier 1 + sanitized suites all green"
