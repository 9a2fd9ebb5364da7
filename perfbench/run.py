"""Benchmark of the bergersphere package, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload diameter-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process drives the package's public functions in a closed loop with
one caller.  A run repeats one seeded round of operations until
``--seconds`` have passed, at least two rounds are done (outputs of
repeated commands are compared) and, without tracing, at least 100
operations have completed, so that the 90th percentile has ten samples
beyond it.
Each operation is timed alone; its outputs are checked after the clock
stops.  Between operations, outside their timing, a fixed reference
computation (``speed.py``) is timed, and every end-to-end time is
reported scaled to the machine speed at which that computation takes
``speed.NOMINAL_S``; raw times are kept in the run's detail file.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  The same
object, with run details, is written under ``perfbench/out/``.

``--workload all`` runs every workload untraced and traced, each in its
own process, prints every metric with its unit and the tracing overhead,
and exits 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NAMES = ("diameter-sweep", "profile-cli", "geodesic-oracles")  # the keys of workloads.WORKLOADS
MIN_OPS = 100          # completed operations an untraced run needs for op_p90_ms
MAX_SECONDS = 120.0    # a run stops here even when MIN_OPS is not reached
SETUP_SAMPLES = 7      # fresh interpreters timed for setup_s; the median is reported
WARMUP_OPS = 3         # operations run untimed and unchecked before a run's clock starts

# A fresh interpreter that imports the package and makes one workload's inputs.
_SETUP = """\
import sys
root, src, name, seed = sys.argv[1:]
sys.path[:0] = [root, src]
import bergersphere
from perfbench.workloads import WORKLOADS
WORKLOADS[name].make(int(seed))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

# A fresh interpreter that imports numpy alone: the reference set-up times are scaled by.
_START = """\
import sys
import numpy
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def _ready_seconds(code: str, *args: str) -> float:
    """Time from spawning a fresh interpreter on ``code`` to its "ready" line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"fresh interpreter exited with {proc.returncode}")
    return elapsed


def _setup_seconds(name: str, seed: int) -> "tuple[list, list, list]":
    """Raw set-up times; each scaled by the numpy-only starts just before and after it; those starts."""
    from perfbench.speed import NOMINAL_START_S

    starts = [_ready_seconds(_START)]
    times = []
    for _ in range(SETUP_SAMPLES):
        times.append(_ready_seconds(_SETUP, str(ROOT), str(SRC), name, str(seed)))
        starts.append(_ready_seconds(_START))
    scaled = [t * NOMINAL_START_S / statistics.fmean(starts[i:i + 2]) for i, t in enumerate(times)]
    return times, scaled, starts


def _measure(workload, ops, seconds: float, tracer, probe) -> dict:
    """Repeat the round of ``ops``, time each operation alone and sample the probe after it."""
    durations, cpu, samples, slots, failures, problems = [], [], [], [], {}, []
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        for slot, op in enumerate(ops):
            attempted += 1
            span = tracer.operation() if tracer else nullcontext()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with span:
                    out = workload.run(op)
            except Exception as exc:  # a failed operation is counted, then the run goes on
                key = f"{type(exc).__name__}: {exc}"
                failures[key] = failures.get(key, 0) + 1
                probe.sample()
                continue
            t1, c1 = time.perf_counter(), time.process_time()
            durations.append(t1 - t0)
            cpu.append(c1 - c0)
            slots.append(slot)
            problems += [f"{op}: {p}" for p in workload.check(op, out)]
            samples.append(probe.sample())
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_SECONDS or (
                elapsed >= seconds and rounds >= 2 and (tracer or len(durations) >= MIN_OPS)):
            break
    return {"durations": durations, "cpu": cpu, "samples": samples, "slots": slots,
            "failures": failures, "problems": problems,
            "attempted": attempted, "rounds": rounds, "elapsed_s": elapsed}


def _timings(durations: list, cpu: list) -> dict:
    """Throughput, latency percentiles and CPU time of completed operations (in seconds)."""
    done = len(durations)
    ms = sorted(d * 1e3 for d in durations)
    return {
        "ops_per_s": done / sum(durations) if done else 0.0,
        "op_p50_ms": statistics.median(ms) if done else math.nan,
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8] if done >= 2 else math.nan,
        "cpu_ms_per_op": sum(cpu) * 1e3 / done if done else math.nan,
        "ms_per_op": sum(ms) / done if done else math.nan,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    # imported here: they import the package, which main() first puts on sys.path
    from perfbench.speed import SpeedProbe
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    # One vCPU for the whole run, set-up interpreters included: the machine's
    # vCPUs differ in speed, and the probe must see the one the work ran on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    setup, setup_scaled, starts = ([], [], []) if trace else _setup_seconds(name, seed)
    ops = WORKLOADS[name].make(seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](workdir)
        for op in ops[:WARMUP_OPS]:
            try:
                workload.run(op)
            except Exception:  # the timed rounds count and report every failure
                pass
            probe.sample()
        tracer = Tracer() if trace else None
        with tracer.installed() if tracer else nullcontext():
            m = _measure(workload, ops, seconds, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = len(m["durations"])
    failed = sum(m["failures"].values())
    raw = _timings(m["durations"], m["cpu"])
    scaled = _timings([d * probe.scale(k) for d, k in zip(m["durations"], m["samples"])],
                      [c * probe.scale(k, cpu=True) for c, k in zip(m["cpu"], m["samples"])])
    if tracer:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.metrics().items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": scaled["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": scaled["op_p90_ms"], "unit": "ms"},
            "cpu_ms_per_op": {"value": scaled["cpu_ms_per_op"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not m["problems"] and done > 0, "attempted": m["attempted"],
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": m["rounds"], "round_size": len(ops), "completed": done,
        "elapsed_s": m["elapsed_s"], "scaled": scaled, "raw": raw,
        "probe_median_ms": statistics.median(probe.wall) * 1e3,
        "setup_s": setup, "setup_scaled_s": setup_scaled, "numpy_start_s": starts,
        "failures": m["failures"], "problems": m["problems"][:20],
        "op_slot": m["slots"], "op_s": m["durations"], "probe_s": probe.wall,
    }
    if tracer:
        tracer.write(OUT / f"{name}.spans.csv.gz")  # the latest traced run of each workload
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1))

    for key, count in m["failures"].items():
        print(f"{name}: {count} operations failed with {key}", file=sys.stderr)
    for p in m["problems"][:10]:
        print(f"{name}: wrong output: {p}", file=sys.stderr)
    if not trace and done < MIN_OPS:
        print(f"{name}: only {done} operations completed; op_p90_ms has fewer than ten "
              f"samples beyond it", file=sys.stderr)
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    from perfbench.speed import NOMINAL_S

    ok = True
    for name in NAMES:
        ms_per_op = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", repr(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode not in (0, 1):
                print(f"{name}: run exited with {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            detail = json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())["detail"]
            ms_per_op[trace] = detail["scaled"]["ms_per_op"]
            print(f"{name}  trace={trace}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}  "
                  f"rounds={detail['rounds']}  probe median {detail['probe_median_ms']:.3f} ms "
                  f"(scaled figures assume {NOMINAL_S * 1e3:g} ms)")
            for key, metric in result["metrics"].items():
                print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")
        if ms_per_op.get(0) and ms_per_op.get(1):
            print(f"  tracing overhead: {ms_per_op[1] / ms_per_op[0] - 1.0:+.1%} scaled wall time per operation")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bergersphere" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bergersphere'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    import bergersphere

    if Path(bergersphere.__file__).resolve().parent != SRC / "bergersphere":
        print(f"error: imported bergersphere from {bergersphere.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
