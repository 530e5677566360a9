#!/usr/bin/env python3
"""Repository benchmark: builds envbench and runs the three workloads.

    python3 perfbench/run.py --workload collect|ingest|query --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (and the envmon libraries from src/) into $CARGO_TARGET_DIR,
default .bench_build; later runs only re-check the build.

Every run measures all three workloads, each in its own process, so every
metric named in BENCHMARK.json is present on every run.  The processes
set up one after the other, the named workload first (it alone supplies
setup_s, the median of several set-ups, SETUPS below, and peak_rss_mb).
They then stay alive side by side and take turns in slices of about a
second, one working at a time, until each has measured its share of
--seconds (SHARE below), so that every workload's samples spread over
the whole run.  Then each checks its outputs and prints its metrics.
With --trace 0 the last line holds the end-to-end metrics, with
--trace 1 the per-layer ones.  Any failed output check, failed or
silent child or missing metric exits non-zero without printing a result
line.  See perfbench/README.md.
"""

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("collect", "ingest", "query")
SHARED = ("setup_s", "peak_rss_mb")  # taken from the named workload only
# Share of --seconds each workload measures.  ingest runs whole
# fixed-work sessions of about 6 s on a 4-core host, one per 6 s of its
# share (two at --seconds 30).
SHARE = {"collect": 0.3, "ingest": 0.4, "query": 0.3}
# Set-ups behind the named workload's setup_s (collect times every fleet
# run's configure instead).  Ingest set-up takes milliseconds, so it
# repeats more often to steady its median.
SETUPS = {"collect": 1, "ingest": 15, "query": 5}
# Longest wait for one reply of a child: its set-up, one slice, or its
# output checks and trace passes.
CHILD_TIMEOUT_S = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then brings envbench up to date; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "envbench", "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "envbench")


class Child:
    """One workload process, paced over its stdin (bench.hpp, Slices)."""

    def __init__(self, binary, workload, args, seconds, setups):
        self.workload = workload
        workdir = os.path.join(ROOT, ".bench_work", workload)
        shutil.rmtree(workdir, ignore_errors=True)
        cmd = [binary, "--workload", workload, "--seed", str(args.seed), "--seconds",
               repr(seconds), "--trace", str(args.trace), "--setups", str(setups),
               "--workdir", workdir]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=sys.stderr)
        self.buf = b""
        self.eof = False

    def _fill(self, deadline):
        left = deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("%s: no reply within %d s" % (self.workload, CHILD_TIMEOUT_S))
        ready, _, _ = select.select([self.proc.stdout], [], [], left)
        if ready:
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            self.buf += chunk
            self.eof = not chunk

    def expect(self, words):
        """Reads the next line, which must be one of `words`."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while b"\n" not in self.buf:
            if self.eof:
                raise RuntimeError("%s ended early (exit %s)" % (self.workload, self.proc.wait()))
            self._fill(deadline)
        line, self.buf = self.buf.split(b"\n", 1)
        word = line.decode(errors="replace")
        if word not in words:
            raise RuntimeError("%s: expected %s, got %r" % (self.workload, "/".join(words), word))
        return word

    def send(self, word):
        self.proc.stdin.write((word + "\n").encode())
        self.proc.stdin.flush()

    def end(self):
        """Ends the measured phase; the output checks start."""
        self.send("finish")
        self.proc.stdin.close()

    def result(self):
        """Waits for the child to exit; returns its result object."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while not self.eof:
            self._fill(deadline)
        code = self.proc.wait(max(1.0, deadline - time.monotonic()))
        lines = self.buf.decode(errors="replace").strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if code != 0 or not lines:
            raise RuntimeError("%s exited with %d" % (self.workload, code))
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise RuntimeError("%s: output check failed" % self.workload)
        return result

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(binary, args):
    """Runs the three workloads interleaved; returns their results, named one first."""
    order = [args.workload] + [w for w in WORKLOADS if w != args.workload]
    children = []
    try:
        for workload in order:
            primary = workload == args.workload
            children.append(Child(binary, workload, args, args.seconds * SHARE[workload],
                                  SETUPS[workload] if primary and not args.trace else 1))
            children[-1].expect(("ready",))
        measuring = list(children)
        while measuring:
            for child in list(measuring):
                child.send("slice")
                if child.expect(("done", "complete")) == "complete":
                    measuring.remove(child)
        # The trace passes are timed, so trace runs finish one child at a
        # time; otherwise the output checks run side by side.
        if args.trace:
            results = []
            for child in children:
                child.end()
                results.append(child.result())
            return results
        for child in children:
            child.end()
        return [child.result() for child in children]
    finally:
        for child in children:
            child.stop()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(os.path.abspath(build_dir))

    metrics, attempted, failed, host = {}, 0, 0, None
    for result in measure(binary, args):
        primary = result["workload"] == args.workload
        attempted += result["attempted"]
        failed += result["failed"]
        host = host or result["host"]
        for name, value in result["metrics"].items():
            if name in SHARED and not primary:
                continue
            metrics[name] = value

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics missing from the run: " + ", ".join(missing))
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError("%s: unit %s, BENCHMARK.json says %s"
                               % (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    print("host: " + json.dumps(host))
    out = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    # A terminated run still stops its workload processes (measure()'s finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        main()
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("envbench: %s" % e)
        sys.exit(1)
