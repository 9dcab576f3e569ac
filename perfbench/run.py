"""Benchmark of facdisp: seeded workloads, checked outputs, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload detexp|trace|compile --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 (timed run, untraced): set-up is timed SETUP_REPEATS times, each in
a fresh interpreter (setup_once.py), and the median reported; then whole
rounds of operations run until the summed operation time reaches S seconds
and at least MIN_OPS operations ran.  Each round's outputs are checked after
the round in a forked child process, so that neither the checks' time nor
their memory reaches the measured process.  Metrics: setup_s, ops_per_s,
op_p50_ms, op_p90_ms, peak_rss_mb.

--trace 1 (traced run): the first TRACE_ROUNDS rounds of the same seed run
twice, each time on a freshly imported package: once untraced, once with
every public function of the layer modules wrapped in spans.  The per-layer
metrics come from the spans of the second pass, which are also written to
perfbench/traces/; their times are scaled to reference speed by the pass's
median kernel time (see clock.py).  trace.overhead_s is the second pass's
time minus the first's.  S does not apply, so the counts repeat exactly for
a seed.

An operation that raises, or whose output fails a check, counts as failed;
`correct` is false when any operation failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import program
from clock import CAL_EVERY_S, Clock
from tracer import ROOT_BUILD, ROOT_OP, ROOT_SETUP, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = {"detexp": "wl_detexp", "trace": "wl_trace", "compile": "wl_compile"}
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
MIN_OPS = 100  # leaves at least ten samples beyond the 90th percentile
MAX_BUSY_FACTOR = 6  # a very slow program stops after this many times --seconds
MAX_REPORTS = 10


class Tally:
    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.latencies: list[float] = []

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def report(self, message: str) -> None:
        if self.failed <= MAX_REPORTS:
            print(message, file=sys.stderr)


def run_round(wl, fd, cases, tally: Tally, clock: Clock, tracer: Tracer | None = None,
              check=True) -> float:
    """Run one round of operations, then check their outputs.

    Returns the round's operation time in reference-speed seconds.
    """
    results = []
    segment, since = [], 0.0
    for case in cases:
        if since >= CAL_EVERY_S:
            _rescale(results, segment, clock.recalibrate())
            segment, since = [], 0.0
        if tracer is not None:
            tracer.begin(ROOT_OP)
        t0 = time.perf_counter()
        try:
            out, err = wl.run_op(fd, case), None
        except Exception:  # a failing operation is counted, and the run goes on
            out, err = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        segment.append(len(results))
        results.append([case, out, err, dt])
        since += dt
    _rescale(results, segment, clock.recalibrate())
    done = [(case, out) for case, out, err, _ in results if err is None]
    verdicts = iter(check_apart(wl, fd, done) if check else [])
    for case, out, err, dt in results:
        tally.attempted += 1
        if err is not None:
            tally.raised += 1
            tally.report(f"operation raised:\n{err}")
            continue
        tally.latencies.append(dt)
        problems = next(verdicts, None)
        if problems:
            tally.wrong += 1
            tally.report(f"wrong output for {case!r:.200}: {problems}")
    return sum(r[3] for r in results)


def check_apart(wl, fd, items) -> list[list[str]]:
    """The problems `wl.check` finds in each (case, output) pair, found in a
    forked child so that the checks' memory and sympy caches stay out of the
    measured process."""
    if not items:
        return []
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            with os.fdopen(wfd, "w") as pipe:
                json.dump([_check_one(wl, fd, case, out) for case, out in items], pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status:
        return [[f"checker process ended with status {status}"]] * len(items)
    return json.loads(data)


def _check_one(wl, fd, case, out) -> list[str]:
    try:
        return wl.check(fd, case, out)
    except Exception:  # an output the checks cannot read is a wrong output
        return [f"output could not be checked:\n{traceback.format_exc()}"]


def _rescale(results, segment, scale) -> None:
    for i in segment:
        results[i][3] *= scale


def timed_run(wl, seed: int, seconds: float):
    setups = [setup_once(wl, seed) for _ in range(SETUP_REPEATS)]
    clock = Clock()
    fd = program.load_program()
    cases = wl.build_round(fd, seed, 0)
    gc.collect()
    tally = Tally()
    busy, rnd = 0.0, 0
    while True:
        if rnd:
            cases = wl.build_round(fd, seed, rnd)
        busy += run_round(wl, fd, cases, tally, clock)
        rnd += 1
        if busy >= seconds and tally.attempted >= MIN_OPS:
            break
        if busy >= MAX_BUSY_FACTOR * seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat_ms = [x * 1e3 for x in tally.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / busy if busy else 0.0,
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else 0.0,
        "peak_rss_mb": rss_mib,
    }
    return tally, metrics


def setup_once(wl, seed: int) -> float:
    """One set-up, timed in a fresh interpreter that has loaded only the
    benchmark's own modules: import facdisp and build round 0."""
    cmd = [sys.executable, str(HERE / "setup_once.py"), wl.__name__, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout)


def one_pass(wl, seed: int, tracer: Tracer | None, check: bool):
    """Set-up plus TRACE_ROUNDS rounds.

    Returns the tally, the reference-speed seconds spent in the program, and the clock.
    """
    clock = Clock()
    tally = Tally()
    gc.collect()
    fd, spent = clock.measure(program.load_program)
    if tracer is not None:
        tracer.install(fd)
    for rnd in range(wl.TRACE_ROUNDS):
        if tracer is not None:
            tracer.begin(ROOT_BUILD if rnd else ROOT_SETUP)
        cases, dt = clock.measure(wl.build_round, fd, seed, rnd)
        if tracer is not None:
            tracer.end()
        spent += dt + run_round(wl, fd, cases, tally, clock, tracer, check)
    return tally, spent, clock


def traced_run(wl, name: str, seed: int):
    _, plain, _ = one_pass(wl, seed, None, check=False)
    tracer = Tracer()
    tally, traced, clock = one_pass(wl, seed, tracer, check=True)
    scale = clock.overall_scale()
    metrics = {k: v * scale if k.endswith("_s") else v
               for k, v in layer_metrics(tracer.spans).items()}
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(HERE / "traces" / f"{name}-seed{seed}.csv.gz")
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        program.ensure_source()
        spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    except (program.ProgramMissing, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = importlib.import_module(WORKLOADS[args.workload])
    if wl.NEEDS_SYMPY:
        import sympy  # noqa: F401  (loaded before any timing starts)
    if args.trace:
        tally, values = traced_run(wl, args.workload, args.seed)
        declared = spec["per_layer"]
    else:
        tally, values = timed_run(wl, args.seed, args.seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"error: measured {sorted(values)}, declared {sorted(units)}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
