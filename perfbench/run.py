#!/usr/bin/env python3
"""Benchmark of the ambrose verification engine.

Run from the repository root:

    python3 perfbench/run.py --workload singer-metric --seed 1 --seconds 14 --trace 0

One operation is one verification call at a fixed input size, driven through
the public API (``ambrose.cli.parse_config`` and ``run_scenario``, or
``homogeneity.build_tower`` and ``orbit_match``). The loop is closed with a
single client; operation ``i`` uses seed ``seed + i``, so operations share no
inputs. Operation 0 is the first in the process and is timed on its own
(``first_op_s``); warm operations 1, 2, ... run until ``--seconds`` have been
spent on them. ``AMBROSE_THREADS`` is removed from the environment, so the
engine runs its default single-thread path.

``--trace 0`` reports the end-to-end metrics. Set-up (import of
``ambrose.cli`` plus fixture instantiation) and a first operation are also
timed in a few fresh interpreters started during the warm loop, each on the
seed of a warm operation already run, and their reports must equal the main
process's byte for byte (the determinism check). Every end-to-end time is in
seconds at reference speed: the wall time scaled by the reference kernel
(``reference.py``), so that the drift of a shared host's speed cancels. Warm
operations are scaled by the mean of the kernel's times through the run, where
it is timed once per second of operations; each cold start, by the kernel
timed right before and right after its fresh interpreter (right after, for
the main process's). The wall times themselves are printed on the line before
the result.

``--trace 1`` reports per-layer metrics. After operation 0, each seed runs
untraced and then traced (``tracer.py``); the two reports must be byte
identical, and their time ratio is the tracing overhead. Spans and the full
layer table are written under ``bench_out/``.

Every report is judged by the oracle in ``workloads.py``; ``residual_digits``
is the median over operations of -log10 of the report's largest residual,
each residual rescaled to the report's tightest tolerance. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units are those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the reported metrics
# Fresh interpreters that time set-up and a first operation again: as many as
# fit in PROBE_BUDGET_S at the cost the main process measured, within
# [MIN_PROBES, MAX_PROBES]. They are spread over the warm loop because the
# speed of a shared host drifts on a scale of ten seconds, and each reruns a
# different warm operation's seed, so that a cold start's time is not that of
# one input.
PROBE_BUDGET_S = 7.0
MIN_PROBES, MAX_PROBES = 2, 4
PROBE_TIMEOUT_S = 120
RESIDUAL_FLOOR = 1e-16  # an exact zero residual counts as 16 digits

sys.path.insert(0, str(HERE))
from reference import NOMINAL_S, Reference  # noqa: E402
from workloads import WORKLOADS, Workload, judge  # noqa: E402

# per-call attributes recorded by the tracer, from the call's arguments, and
# how each is reduced to one per-layer metric over the traced operations
TRACE_ATTRS = {
    "lie_core.nullspace": {"rows_max": lambda a: a["mat"].shape[0]},
    "homogeneity.build_tower": {"levels": lambda a: a["kmax"] + 1},
}
ATTR_REDUCE = {"rows_max": max, "levels": statistics.mean}


def timed_setup(w: Workload) -> tuple[float, float]:
    """(import_s, setup_s): import of ambrose.cli, and that plus fixture
    instantiation, timed in this process. Run before anything else imports
    numpy or ambrose."""
    t0 = time.perf_counter()
    import ambrose.cli  # noqa: F401

    t1 = time.perf_counter()
    from ambrose.fixtures import instantiate

    instantiate(w.fixture, {})
    t2 = time.perf_counter()
    return t1 - t0, t2 - t0


def timed_op(w: Workload, seed: int) -> tuple[float, str | None]:
    """Wall time and serialized report of one operation; None if it raised."""
    t0 = time.perf_counter()
    try:
        text = w.run(seed)
    except Exception:  # a raising operation is counted as failed, not fatal
        traceback.print_exc(file=sys.stderr)
        text = None
    return time.perf_counter() - t0, text


def cold_start(w: Workload, seed: int, setup_s: float) -> dict:
    """The first operation of a process, after its set-up."""
    first_s, text = timed_op(w, seed)
    return {"setup_s": setup_s, "first_op_s": first_s, "report": text}


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (q a multiple of 10) of the values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Tally:
    """Operations attempted and failed, and each passing report's largest
    rescaled residual."""

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.attempted = 0
        self.failed = 0
        self.residuals: list[float] = []

    def judge(self, text: str | None) -> None:
        self.attempted += 1
        residual = judge(text, self.w.oracle)
        if residual is None:
            self.failed += 1
            print(f"oracle rejected a {self.w.name} report: {text!r}", file=sys.stderr)
        else:
            self.residuals.append(residual)

    def rerun(self, what: str, seed: int, same: bool) -> None:
        """A rerun of an operation, which must reproduce its report."""
        self.attempted += 1
        if not same:
            self.failed += 1
            print(f"{what}: report for seed {seed} differs", file=sys.stderr)


def probe(w: Workload, seed: int) -> dict:
    """Set-up and operation 0 in a fresh interpreter (``--probe``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", w.name,
           "--seed", str(seed), "--seconds", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"probe exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_untraced(w: Workload, seed: int, seconds: float, setup: tuple[float, float],
                 tally: Tally) -> dict:
    first = cold_start(w, seed, setup[1])
    tally.judge(first["report"])
    probes = min(MAX_PROBES, max(MIN_PROBES, round(PROBE_BUDGET_S / (setup[1] + first["first_op_s"]))))
    colds = [first]
    reports = [(seed, first["report"])]  # (seed, report) of this process's operations
    probed: set[int] = set()

    def fresh_cold_start() -> None:
        # the latest operation not yet rerun in a fresh interpreter
        s, text = next((r for r in reversed(reports) if r[0] not in probed), reports[-1])
        probed.add(s)
        before = ref.sample()
        got = probe(w, s)
        got["reference_s"] = (before + ref.sample()) / 2
        colds.append(got)
        tally.rerun("determinism", s, got["report"] == text)

    ref = Reference()
    first["reference_s"] = ref.sample()
    samples: list[float] = []
    i = 1
    spent = 0.0
    while not samples or spent < seconds:
        if len(colds) <= probes and spent >= len(colds) * seconds / (probes + 1):
            fresh_cold_start()
        ref.tick(spent)
        dt, text = timed_op(w, seed + i)
        tally.judge(text)
        reports.append((seed + i, text))
        samples.append(dt)
        spent += dt
        i += 1
    while len(colds) <= probes:
        fresh_cold_start()
    ref.sample()
    print(json.dumps({"wall_s": {
        "reference": ref.samples, "op": samples,
        "cold": [{k: v for k, v in c.items() if k != "report"} for c in colds],
    }}))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = ref.scale()

    def cold_mean(key: str) -> float:
        # the mean: with three to five cold starts it is steadier than the median
        return statistics.mean(c[key] * NOMINAL_S / c["reference_s"] for c in colds)

    return {
        "setup_s": cold_mean("setup_s"),
        "first_op_s": cold_mean("first_op_s"),
        "op_s.p50": quantile(samples, 50) * scale,
        "op_s.p90": quantile(samples, 90) * scale,
        "points_per_s": w.points * len(samples) / (spent * scale),
        "ok_ops_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": peak_mb,
        # median over operations: the largest residual varies by a decade
        # from point to point, so the worst over a run is too noisy to bound
        "residual_digits": -math.log10(max(statistics.median(tally.residuals), RESIDUAL_FLOOR)),
    }


def run_traced(w: Workload, seed: int, seconds: float, setup: tuple[float, float],
               tally: Tally) -> dict:
    import ambrose
    from tracer import Tracer

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("ambrose.") and name != "ambrose.__main__"]
    tracer = Tracer()
    patches = tracer.patch(modules, prefix=ambrose.__name__ + ".", attrs=TRACE_ATTRS)
    _, plain_text = timed_op(w, seed)
    tally.judge(plain_text)
    ref = Reference()
    plain: list[float] = []
    traced: list[float] = []
    i = 0
    spent = 0.0
    while len(traced) < 2 or spent < seconds:
        ref.tick(spent)
        if i > 0:
            dt, plain_text = timed_op(w, seed + i)
            tally.judge(plain_text)
            plain.append(dt)
            spent += dt
        tracer.op = i
        patches.install()
        try:
            dt, text = timed_op(w, seed + i)
        finally:
            patches.uninstall()
        tally.rerun("trace transparency", seed + i, text == plain_text)
        traced.append(dt)
        spent += dt
        i += 1
    points = w.points * len(traced)
    layers = tracer.layers()
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{w.name}-seed{seed}"
    tracer.save(stem.with_suffix(".npz"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"points": points, "ops": len(traced), "layers": layers}, indent=1, sort_keys=True))
    print(json.dumps({"ops": len(traced), "spans": len(tracer.span),
                      "traced_s": traced, "untraced_s": plain}))
    # calls and seconds per sample point, for every wrapped function and method
    metrics = {f"{layer}.{field}": v / points
               for layer, fields in layers.items() for field, v in fields.items()}
    for name, vals in tracer.attrs.items():
        metrics[name] = ATTR_REDUCE[name.rsplit(".", 1)[1]](vals or [0.0])
    metrics.update({
        "cli.import_s": setup[0],
        "host.reference_s": ref.seconds(),
        # traced against untraced time of the same seeds; seed 0's untraced
        # run is the first operation, with lazy set-up, so it is left out
        "trace.overhead": statistics.median(traced[1:]) / statistics.median(plain),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on warm operations; at least one runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("AMBROSE_THREADS", None)
    if not (SRC / "ambrose" / "cli.py").is_file():
        print(f"no ambrose sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    specs = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    setup = timed_setup(w)
    import ambrose

    if Path(ambrose.__file__).resolve().parent != SRC / "ambrose":
        print(f"imported ambrose from {ambrose.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(cold_start(w, args.seed, setup[1])))
        return 0
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "env": environment()}))
    tally = Tally(w)
    run = run_traced if args.trace else run_untraced
    values = run(w, args.seed, args.seconds, setup, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
