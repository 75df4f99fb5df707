"""One benchmark run: set-up, timed rounds, untimed tracemalloc passes, checks.

With trace off the run reports the end-to-end metrics. Every round of the
program's operations is matched by the same operations of the pinned copy
of lmn, and the program's set-up by a set-up of the pinned copy; the
program's times are scaled by the speed factors this gives (see speed.py).
With trace on, untraced and traced rounds alternate; the run reports
per-layer self times and counts per operation from the traced rounds, the
tracing overhead against the untraced ones, and the share of the untraced
wall time that the top-level spans cover.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lmn.counters import COUNTER

from . import speed, tracing, workloads
from .workloads import FULL, PINNED, VARIANTS, WORKLOADS, Shapes

SETUP_REPEATS = 3
MIN_ROUNDS = 2  # generate's percentiles are medians over at least this many operations
OUT_DIR = Path(__file__).resolve().parent / "out"
ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Stats:
    """What the timed loop records for one model."""

    attempted: int = 0
    failed: int = 0
    op_seconds: list = field(default_factory=list)
    step_seconds: list = field(default_factory=list)   # per round: one latency per position stepped
    tokens_per_op: int = 0
    counts: list = field(default_factory=list)         # operation counter per operation
    pinned_seconds: list = field(default_factory=list)  # the pinned copy's operation, per operation


def timed_op(workload, variant: str) -> float:
    gc.collect()  # every operation starts from the same collector state
    t0 = perf_counter()
    workload.run_op(variant)
    return perf_counter() - t0


def run_round(workload, stats: dict, tracer=None, ops=None, pinned=None, pinned_first=True) -> None:
    """One operation per model, in a fixed order.

    With `pinned`, the pinned copy runs its operation for each model too,
    all before or all after the program's; each operation then follows one
    on the previous model, pinned or not, so neither side of a pair
    inherits the freed memory of its own model's operation.
    """
    pinned_s = {v: timed_op(pinned, v) for v in VARIANTS} if pinned is not None and pinned_first else {}
    done = []
    for v in VARIANTS:
        st = stats[v]
        st.attempted += 1
        if tracer is not None:
            tracer.op = len(ops)
            ops.append(v)
            tensors_before = tracer.tensors
        gc.collect()
        COUNTER.reset()
        t0 = perf_counter()
        try:
            tokens, samples = workload.run_op(v)
        except Exception:  # an operation that fails is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            st.failed += 1
            continue
        dt = perf_counter() - t0
        done.append(v)
        st.counts.append(COUNTER.snapshot())
        if tracer is not None:
            st.counts[-1]["tensors"] = tracer.tensors - tensors_before
        st.op_seconds.append(dt)
        st.tokens_per_op = tokens
        if samples is not None:
            st.step_seconds.append(samples)
    if pinned is not None:
        if not pinned_first:
            pinned_s = {v: timed_op(pinned, v) for v in VARIANTS}
        for v in done:
            stats[v].pinned_seconds.append(pinned_s[v])


def timed_loop(workload, seconds: float, stats: dict, pinned) -> None:
    """Closed loop, one stream: whole rounds until they have taken `seconds`,
    and at least MIN_ROUNDS. The pinned copy's operations run first in every
    other round, so that drift within a round favours neither side."""
    timed, rounds = 0.0, 0
    while rounds < MIN_ROUNDS or timed < seconds:
        t0 = perf_counter()
        run_round(workload, stats, pinned=pinned, pinned_first=rounds % 2 == 0)
        timed += perf_counter() - t0
        rounds += 1


def timed_setup(cls, seed: int, shapes: Shapes, package: str = workloads.PROGRAM):
    """A workload built from the seed and warmed up, with the time that took."""
    t0 = perf_counter()
    workload = cls(seed, shapes, package)
    workload.setup()
    workload.warm_up()
    return workload, perf_counter() - t0


def traced_loop(workload, seconds: float, stats: dict, untraced_stats: dict, tracer, ops) -> list[str]:
    """Untraced and traced rounds alternate, so both see the same drift; returns targets not found."""
    start = perf_counter()
    while True:
        run_round(workload, untraced_stats)
        not_found = tracer.install()
        try:
            run_round(workload, stats, tracer, ops)
        finally:
            tracer.uninstall()
        if perf_counter() - start >= seconds:
            return not_found


def peak_memory(workload, variant: str) -> int:
    """tracemalloc peak, in bytes, above the level before one operation."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.memory_op(variant)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def token_seconds(st: Stats, factors) -> tuple[np.ndarray, float]:
    """Per-token latency samples and tokens per second, with the times of
    each operation scaled by its speed factor.

    Throughput is all the tokens over all the scaled time. Where an
    operation steps tokens one at a time the samples are its steps, one row
    per operation; otherwise each operation gives one sample, its time over
    its tokens.
    """
    factors = np.asarray(factors, dtype=np.float64)
    op_seconds = np.asarray(st.op_seconds) * factors
    tok_s = st.tokens_per_op / float(np.mean(op_seconds))
    if st.step_seconds:
        return np.asarray(st.step_seconds) * factors[:, None], tok_s
    return op_seconds / st.tokens_per_op, tok_s


def percentile(samples: np.ndarray, q: float) -> float:
    """Of one row of samples per operation, the median over operations of
    each row's percentile, so that a slow operation moves it by one row's
    worth; of one sample per operation, the plain percentile."""
    if samples.ndim == 2:
        return float(np.median(np.percentile(samples, q, axis=1)))
    return float(np.percentile(samples, q))


def end_to_end(stats: dict, peaks: dict, setup_s: float, factors: dict) -> dict:
    """The end-to-end metrics, with each model's times scaled by its factor."""
    metrics = {"setup_s": (setup_s, "s")}
    for v in VARIANTS:
        samples, tok_s = token_seconds(stats[v], factors[v])
        ms = samples * 1e3
        metrics[f"{v}.tok_s"] = (tok_s, "tok/s")
        metrics[f"{v}.peak_mb"] = (peaks[v] / 1e6, "MB")
        metrics[f"{v}.token_ms_p50"] = (percentile(ms, 50), "ms")
        metrics[f"{v}.token_ms_p90"] = (percentile(ms, 90), "ms")
    return metrics


def per_layer(workload, tracer, ops, stats, untraced) -> tuple[dict, list[str]]:
    """Per-operation self times, bytes and counts; plus coverage failures."""
    own, top = tracer.self_times()
    units = {v: workload.units_per_op() * sum(1 for o in ops if o == v) for v in VARIANTS}
    totals = defaultdict(float)  # (variant, metric suffix) -> seconds or bytes
    for (op, layer), seconds in own.items():
        totals[(ops[op], f"{layer}.ms")] += seconds
    for (op, layer), nbytes in tracer.out_bytes.items():
        totals[(ops[op], f"{layer}.mb")] += nbytes
    called = {(ops[op], f"{layer}.{kind}") for (op, layer) in own for kind in ("ms", "mb")}

    metrics, missing = {}, []
    for name, unit in tracing.per_layer_names():
        v, suffix = name.split(".", 1)
        expected_on = tracing.LAYERS[suffix][1]
        st = stats[v]
        if suffix.startswith("counters."):
            value = sum(c.get(suffix.split(".", 1)[1], 0) for c in st.counts) / units[v]
        elif suffix == "tensor.tensors.count":
            value = sum(c["tensors"] for c in st.counts) / units[v]
        elif suffix == "trace.overhead_pct":
            value = 100.0 * (statistics.median(st.op_seconds) / untraced[v] - 1.0)
        elif suffix == "trace.coverage_pct":
            covered = sum(t for op, t in top.items() if op >= 0 and ops[op] == v)
            value = 100.0 * covered / (untraced[v] * len(st.op_seconds))
        else:
            raw = totals[(v, suffix)]
            value = raw * (1e3 if unit == "ms" else 1e-6) / units[v]
            if workload.name in expected_on and (v, suffix) not in called:
                missing.append(name)
        metrics[name] = (value, unit)
    return metrics, missing


def environment() -> dict:
    """Interpreter, numpy/BLAS build, threads in effect, CPUs, malloc and commit."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "libc": " ".join(platform.libc_ver()),
        "malloc": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")} or "libc default, no mallopt",
        "commit": commit(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it exports one."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run(workload_name: str, seed: int, seconds: float, trace: bool, shapes: Shapes = FULL,
        started: float | None = None, write_files: bool = True) -> dict:
    """One run; returns the result object printed as the last line, plus 'detail'."""
    started = perf_counter() if started is None else started
    cls = WORKLOADS[workload_name]
    nominal = speed.NOMINAL_S[workload_name] if shapes == FULL else {}
    before_setup = perf_counter() - started  # interpreter, numpy and lmn imports
    if not trace:
        workloads.library(PINNED)  # imported outside the pinned set-up times, as lmn is
    setups, pinned_setups = [], []
    for k in range(1 if trace else SETUP_REPEATS):
        workload, t = timed_setup(cls, seed, shapes)
        setups.append(before_setup + t)
        if not trace and k == 0:  # the pinned copy's set-up, between the program's first two
            pinned, t = timed_setup(cls, seed, shapes.pinned(), PINNED)
            pinned_setups.append(t)

    stats = {v: Stats() for v in VARIANTS}
    detail = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "setup_s": setups, "pinned_setup_s": pinned_setups}
    phases = detail["phase_s"] = {"setup": perf_counter() - started}
    if not trace:
        t0 = perf_counter()
        timed_loop(workload, seconds, stats, pinned)
        phases["rounds"] = perf_counter() - t0
        t0 = perf_counter()
        peaks = {v: peak_memory(workload, v) for v in VARIANTS}
        phases["tracemalloc"] = perf_counter() - t0
        setup_factor = speed.factor(pinned_setups[0], nominal.get("setup"))
        factors = {v: [speed.factor(s, nominal.get(v)) for s in stats[v].pinned_seconds] for v in VARIANTS}
        metrics = end_to_end(stats, peaks, statistics.median(setups) * setup_factor, factors)
        ones = {v: [1.0] * len(stats[v].op_seconds) for v in VARIANTS}
        wall = end_to_end(stats, peaks, statistics.median(setups), ones)
        detail["wall_clock"] = {name: value for name, (value, _) in wall.items()}
        detail["speed_factors"] = {"setup": setup_factor, **factors}
        detail["op_s"] = {v: stats[v].op_seconds for v in VARIANTS}
        detail["pinned_op_s"] = {v: stats[v].pinned_seconds for v in VARIANTS}
        # kept out of the metrics: too unsteady on a shared machine to bound (see README.md)
        detail["token_ms_p99"] = {v: percentile(token_seconds(stats[v], factors[v])[0], 99) * 1e3
                                  for v in VARIANTS}
    else:
        untraced_stats = {v: Stats() for v in VARIANTS}
        tracer, ops = tracing.Tracer(), []
        t0 = perf_counter()
        not_found = traced_loop(workload, seconds, stats, untraced_stats, tracer, ops)
        phases["timed"] = perf_counter() - t0
        untraced = {v: statistics.median(untraced_stats[v].op_seconds) for v in VARIANTS}
        metrics, missing = per_layer(workload, tracer, ops, stats, untraced)
        for v in VARIANTS:
            stats[v].attempted += untraced_stats[v].attempted
            stats[v].failed += untraced_stats[v].failed
        detail["untraced_op_s"] = untraced
        detail["trace_targets_not_found"] = not_found
        detail["coverage_missing"] = missing
        if write_files:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"trace-{workload_name}-seed{seed}.json"
            path.write_text(json.dumps(tracer.to_json(ops)))
            detail["trace_file"] = str(path.relative_to(ROOT))

    t0 = perf_counter()
    try:
        failures = workload.check(stats)
    except Exception as exc:  # a check that cannot run is a failed check; the result still prints
        traceback.print_exc(file=sys.stderr)
        failures = [f"checks raised {exc!r}"]
    phases["checks"] = perf_counter() - t0
    detail["check_values"] = workload.measured
    if trace and detail["coverage_missing"]:
        failures.append("traced run recorded no call for " + ", ".join(detail["coverage_missing"]))
    detail["failures"] = failures
    detail["per_model"] = {v: {"attempted": stats[v].attempted, "failed": stats[v].failed,
                               "ops_timed": len(stats[v].op_seconds)} for v in VARIANTS}
    result = {
        "correct": not failures,
        "attempted": sum(stats[v].attempted for v in VARIANTS),
        "failed": sum(stats[v].failed for v in VARIANTS),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if write_files:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps({"result": result, **detail}, indent=1))
    return {**result, "detail": detail}
